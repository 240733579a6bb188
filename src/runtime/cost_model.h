// Cluster cost model: converts measured engine statistics into modeled
// end-to-end job latency on a distributed cluster.
//
// This is the substitution for the paper's Amazon EMR and 380-node Hadoop
// testbeds (see DESIGN.md Section 6). The engines measure real CPU work and
// real serialized shuffle bytes; this model only adds the cluster resources
// the laptop does not have — aggregate read bandwidth from storage, network
// bandwidth for the shuffle, task parallelism limited by nodes*cores, and
// reduce-side parallelism limited by the number of groups (the effect behind
// the paper's B1 result: 4.5 h baseline vs 5.5 min SYMPLE with one group).
//
// The model is deliberately simple and monotone:
//
//   map     = job_overhead + max(read_time, map_cpu / map_slots)
//             (reading, decompressing and UDA work overlap in the paper's
//              pipeline; whichever saturates first dominates — this is what
//              dampens SYMPLE's win on the complete RedShift variant)
//   shuffle = shuffle_bytes / (net_bw * nodes)
//             + shuffle_bytes / (net_bw * min(reducers, groups))   (ingest)
//   reduce  = reduce_cpu / min(reduce_slots, groups)
//
#ifndef SYMPLE_RUNTIME_COST_MODEL_H_
#define SYMPLE_RUNTIME_COST_MODEL_H_

#include <cstdint>

#include "obs/report.h"
#include "runtime/engine_stats.h"

namespace symple {

struct ClusterConfig {
  int nodes = 10;
  int cores_per_node = 4;
  // Streaming read bandwidth from storage (S3/disk), per node, MB/s.
  double read_mbps_per_node = 80;
  // Network bandwidth available to the shuffle, per node, MB/s.
  double net_mbps_per_node = 60;
  // Fixed job scheduling/startup overhead, seconds.
  double job_overhead_s = 20;
  // Configured number of reduce tasks (the paper sets reducers = machines on
  // EMR and 50 on the large cluster).
  int reducers = 10;

  int map_slots() const { return nodes * cores_per_node; }

  static ClusterConfig AmazonEmr(int nodes);
  static ClusterConfig LargeSharedCluster();
  // The machine the engines actually ran on: one node whose map/reduce slots
  // match the engine options, in-memory "storage" and "network", and no job
  // scheduling overhead. Feeding this back into EstimateLatency predicts the
  // local run itself, which is what the model_error validation compares
  // against the measured stage walls.
  static ClusterConfig LocalMachine(int map_slots, int reduce_slots);
};

struct LatencyBreakdown {
  double map_s = 0;
  double shuffle_s = 0;
  double reduce_s = 0;
  double total_s() const { return map_s + shuffle_s + reduce_s; }
};

// `cpu_scale` multiplies measured CPU milliseconds before modeling; used by
// benchmarks to extrapolate a laptop-sized run to the paper-sized dataset
// (both engines scale identically, so ratios are unaffected).
LatencyBreakdown EstimateLatency(const EngineStats& stats, const ClusterConfig& config,
                                 double cpu_scale = 1.0, double bytes_scale = 1.0);

// Cost-model validation (RunReport "model_error"): runs EstimateLatency with
// the LocalMachine config and puts the predicted per-stage breakdown next to
// the measured stage walls. Tracked by benches to catch calibration drift:
// a model that stops predicting the machine it runs on cannot be trusted to
// extrapolate to the paper's clusters.
obs::ModelErrorReport ValidateCostModel(const EngineStats& stats,
                                        size_t map_slots, size_t reduce_slots);

}  // namespace symple

#endif  // SYMPLE_RUNTIME_COST_MODEL_H_
