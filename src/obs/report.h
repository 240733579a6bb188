// Run reporting: per-task observations collected during one engine run and
// serialized as a stable, machine-readable JSON RunReport.
//
// Layering: obs knows nothing about how the engines schedule work. The
// runtime fills the per-task structs below; RunObserver folds them into
// per-task histograms and (when a Tracer is attached) emits one trace span
// per task. The whole-run counters
// are the runtime's own plain-data EngineStats (runtime/engine_stats.h),
// embedded as RunReport::totals next to the per-task distributions it cannot
// carry — obs keeps no second copy of any counter.
#ifndef SYMPLE_OBS_REPORT_H_
#define SYMPLE_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "runtime/engine_stats.h"

namespace symple {
namespace obs {

class JsonWriter;

// One map task: the per-task map counters, filled by the map bodies. The
// morsel loop sums a segment's morsels with +=, forked workers ship a
// segment's counters with its commit, and either way the engine folds each
// finished task into EngineStats (internal::FoldMapTask) and reports it here.
struct MapTaskObs {
  uint32_t mapper_id = 0;
  double start_us = 0;  // on the observer's clock (NowUs); 0/0 without one
  double end_us = 0;
  double cpu_ms = 0;
  uint64_t records = 0;  // input records scanned
  uint64_t parsed = 0;   // records surviving the groupby filter
  uint64_t packets = 0;  // shuffle packets emitted
  uint64_t bytes = 0;    // serialized packet bytes emitted
  uint64_t summaries = 0;
  uint64_t summary_paths = 0;
  ExplorationStats exploration;
  // Group-table allocation/probing counters (core/flat_group_map.h).
  GroupMapStats group_map;
  // Peak resident set of the forked worker that ran this task (from wait4 at
  // reap time); 0 for in-process tasks.
  uint64_t maxrss_kb = 0;
  // Morsel-driven scheduling (docs/scheduling.md): how many morsels this
  // segment was executed as, how many of them ran on a worker other than the
  // segment's seeded owner, and the per-morsel wait between map-phase start
  // and the morsel being pulled off a deque. All zero/empty when the segment
  // ran as one static task (forked children, single-slot runs).
  uint64_t morsels = 0;
  uint64_t stolen_morsels = 0;
  HistogramSnapshot queue_wait_us;
  // Per-group distributions within this task (threaded SYMPLE map tasks
  // only; forked workers do not ship them).
  HistogramSnapshot paths_per_group;
  HistogramSnapshot summaries_per_group;

  // Adds `o`'s counters and distributions; when `o` carries a span, this
  // task's span widens to cover it. mapper_id is left alone.
  MapTaskObs& operator+=(const MapTaskObs& o);
};

// One completed reduce task (one reduce slot's share of the key runs).
// Reduce workers that processed zero groups are never reported — an idle
// slot is a scheduling artifact, not a task.
struct ReduceTaskObs {
  uint32_t reducer_id = 0;
  double start_us = 0;
  double end_us = 0;
  double cpu_ms = 0;
  uint64_t groups = 0;   // key runs this task reduced
  uint64_t packets = 0;  // packets consumed
  uint64_t bytes = 0;    // serialized packet bytes consumed
  // Largest single key run this task reduced, in packet bytes — the straggler
  // attribution signal: a heavy key shows up as max_run_bytes ≈ bytes.
  uint64_t max_run_bytes = 0;
  double spill_merge_ms = 0;  // wall spent streaming spilled partitions
  // Per-run wait between reduce-stage start and this worker picking the run
  // off the shared queue (microseconds) — the skew-scheduling signal.
  HistogramSnapshot queue_wait_us;
};

// EstimateLatency's predicted per-stage breakdown next to the measured stage
// walls — the cost-model calibration record (error_pct = predicted/measured
// - 1, as a percentage; 0 when a stage measured zero wall).
struct ModelErrorReport {
  bool present = false;
  double predicted_map_ms = 0;
  double predicted_shuffle_ms = 0;
  double predicted_reduce_ms = 0;
  double predicted_total_ms = 0;
  double measured_map_ms = 0;
  double measured_shuffle_ms = 0;
  double measured_reduce_ms = 0;
  double measured_total_ms = 0;
  double map_error_pct = 0;
  double shuffle_error_pct = 0;
  double reduce_error_pct = 0;
  double total_error_pct = 0;
};

// The full machine-readable record of one engine run.
struct RunReport {
  std::string query;
  std::string engine;  // "sequential" | "mapreduce" | "symple" | forked variants
  std::vector<std::pair<std::string, std::string>> config;

  // The run's counters (filled by MakeRunReport): serialized as "totals",
  // "exploration", "degrades.reasons" and the "rusage" deltas.
  EngineStats totals;

  uint64_t map_task_count = 0;
  HistogramSnapshot map_wall_us;
  HistogramSnapshot map_cpu_us;
  HistogramSnapshot map_parsed_records;
  HistogramSnapshot map_packets;
  HistogramSnapshot map_shuffle_bytes;
  HistogramSnapshot map_summary_paths;
  // Morsel scheduling: morsels-per-segment distribution and per-morsel queue
  // wait (docs/scheduling.md). Empty when the run used static dispatch.
  HistogramSnapshot map_morsels_per_task;
  HistogramSnapshot map_morsel_queue_wait_us;

  uint64_t reduce_task_count = 0;
  HistogramSnapshot reduce_wall_us;
  HistogramSnapshot reduce_cpu_us;
  HistogramSnapshot reduce_groups;
  HistogramSnapshot reduce_queue_wait_us;

  // Hash-partitioned shuffle (docs/shuffle.md): per-partition distributions
  // over the run's partitions.
  uint64_t shuffle_partition_count = 0;
  HistogramSnapshot shuffle_partition_bytes;
  HistogramSnapshot shuffle_partition_packets;
  HistogramSnapshot shuffle_partition_runs;

  HistogramSnapshot paths_per_group;
  HistogramSnapshot summaries_per_group;

  // Worker-failure events observed during the run (forked engines only):
  // every crash/timeout/protocol kill, whether it led to a retry or to the
  // in-process fallback.
  uint64_t worker_failures = 0;

  // Segment-degradation events beyond the per-reason counts in totals: the
  // number of OnSegmentDegraded events observed, and a sample of the original
  // error messages (capped at kMaxDegradeMessages — the satellite requirement
  // that the triggering error's message survives into the run report).
  uint64_t degraded_segment_events = 0;
  std::vector<std::string> degrade_messages;

  uint64_t dropped_spans = 0;

  // Run analyzer (PR 6): the span ring folded into a per-run timeline with
  // critical path and stragglers; always serialized (built=false when no
  // tracer was attached or obs is disabled).
  RunTimeline timeline;

  // The per-worker peak-RSS distribution captured via wait4 in the forked
  // engines (the run's own rusage deltas are totals.rusage).
  HistogramSnapshot worker_maxrss_kb;

  // Cost-model calibration: EstimateLatency vs measured stage walls.
  ModelErrorReport model_error;

  // Appends this report as one JSON object ("symple.run_report/1").
  void AppendJson(JsonWriter& w) const;
  std::string ToJson() const;
};

// Human-readable bottleneck report for `query_cli --explain`: the timeline's
// stage table, critical path and stragglers, plus rusage and model-error
// summaries.
std::string FormatExplainText(const RunReport& report);

// Appends a histogram as {"count","sum","min","max","mean","p50","p95"}.
void AppendHistogramJson(JsonWriter& w, const HistogramSnapshot& h);

// Collects task observations for one engine run. All On* methods are called
// by the coordinating engine thread after the worker pool has quiesced, so no
// locking is needed; timestamps were taken on the workers via NowUs(), which
// is thread-safe.
class RunObserver {
 public:
  // `tracer` may be null (report-only observation). `trace_pid` selects the
  // Chrome-trace process lane for this run's spans, letting several engine
  // runs share one trace file side by side.
  explicit RunObserver(std::string engine, Tracer* tracer = nullptr,
                       uint32_t trace_pid = 0);

  Tracer* tracer() const { return tracer_; }
  uint32_t trace_pid() const { return trace_pid_; }

  // Clock for task timestamps: the attached tracer's epoch when present.
  double NowUs() const { return tracer_ != nullptr ? tracer_->NowUs() : own_clock_.NowUs(); }

  void OnMapTask(const MapTaskObs& t);
  void OnReduceTask(const ReduceTaskObs& t);
  // One shuffle hash partition after its parallel sort and run detection.
  void OnShufflePartition(uint32_t partition_id, uint64_t bytes,
                          uint64_t packets, uint64_t runs);
  // A named engine phase (e.g. "shuffle_sort"); also recorded as a span.
  void OnPhase(const std::string& name, double start_us, double end_us,
               uint64_t detail = 0, const std::string& detail_key = "");
  // A forked worker was killed and its pending segments rescheduled. `kind`
  // is "crash" | "timeout" | "protocol" | "corrupt"; recorded as an instant
  // trace event.
  void OnWorkerFailure(uint32_t worker_id, const std::string& kind);
  // A map segment degraded from symbolic summary to concrete replay.
  // `reason` is a DegradeReasonName string; `message` preserves the original
  // error text; `replay_ms` is the time the reducer spent concretely
  // re-scanning the segment (0 when unknown). Recorded as a trace span whose
  // duration is the replay time.
  void OnSegmentDegraded(uint32_t segment_id, const std::string& reason,
                         const std::string& message, double replay_ms = 0);

  // Overwrites `report` with everything observed (engine name, task
  // histograms + counts, failure/degrade events, dropped spans).
  void FillReport(RunReport* report) const;

 private:
  Tracer* tracer_;
  Tracer own_clock_;  // unused for spans; provides NowUs when tracer_ is null
  uint32_t trace_pid_;

  // The report fields the On* callbacks fill, accumulated in place.
  RunReport observed_;
  static constexpr size_t kMaxDegradeMessages = 8;
};

}  // namespace obs
}  // namespace symple

#endif  // SYMPLE_OBS_REPORT_H_
