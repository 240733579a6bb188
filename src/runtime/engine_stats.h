// Measured statistics of one engine run — the raw material for every
// evaluation figure (throughput, shuffle bytes, CPU seconds) and for the
// cluster cost model. This struct is the *stable snapshot view* and the one
// definition of every run counter: the observability subsystem (src/obs)
// embeds it as RunReport::totals and serializes it through the emitters
// below, next to the per-task distributions and traces it collects itself.
#ifndef SYMPLE_RUNTIME_ENGINE_STATS_H_
#define SYMPLE_RUNTIME_ENGINE_STATS_H_

#include <cstdint>
#include <string>

#include "core/degrade.h"
#include "core/exec_context.h"
#include "core/flat_group_map.h"
#include "obs/json.h"
#include "obs/resource.h"

namespace symple {

namespace internal {

// Fixed-point decimal formatting without snprintf buffers: value rounded to
// `decimals` fractional digits.
inline std::string FormatFixed(double value, int decimals) {
  if (value < 0) {
    return "-" + FormatFixed(-value, decimals);
  }
  uint64_t scale = 1;
  for (int i = 0; i < decimals; ++i) {
    scale *= 10;
  }
  const uint64_t scaled = static_cast<uint64_t>(value * static_cast<double>(scale) + 0.5);
  std::string out = std::to_string(scaled / scale);
  if (decimals > 0) {
    std::string frac = std::to_string(scaled % scale);
    out.push_back('.');
    out.append(static_cast<size_t>(decimals) - frac.size(), '0');
    out += frac;
  }
  return out;
}

}  // namespace internal

struct EngineStats {
  // Wall-clock phases (milliseconds), measured with steady_clock.
  double map_wall_ms = 0;
  // Of map_wall_ms: the coordinator's wall for the input index pass and the
  // morsel cut before the map tasks start (docs/scheduling.md). 0 for the
  // sequential oracle, which runs neither.
  double index_wall_ms = 0;
  double shuffle_wall_ms = 0;
  double reduce_wall_ms = 0;
  double total_wall_ms = 0;

  // Aggregate task time (milliseconds): the sum over all map/reduce tasks of
  // their individual execution time. Tasks are CPU bound, so this is the
  // "CPU usage" metric of the paper's Figure 7.
  double map_cpu_ms = 0;
  double reduce_cpu_ms = 0;
  double total_cpu_ms() const { return map_cpu_ms + reduce_cpu_ms; }

  // Volumes.
  uint64_t input_bytes = 0;
  uint64_t input_records = 0;
  uint64_t parsed_records = 0;  // records surviving the groupby filter
  // Bytes crossing the mapper->reducer boundary, counted on the actual
  // serialized packets (Figures 6 and 8).
  uint64_t shuffle_bytes = 0;
  uint64_t groups = 0;
  uint64_t summaries = 0;  // SYMPLE engine only: total summaries shipped
  uint64_t summary_paths = 0;

  // Shuffle partitioning (docs/shuffle.md): hash partitions the shuffle was
  // routed into, and the byte skew across them — max partition bytes divided
  // by mean partition bytes (1.0 = perfectly balanced, P = everything in one
  // partition, 0 = empty shuffle).
  uint64_t reduce_partitions = 0;
  double partition_skew = 0;

  // Memory-budgeted execution (docs/spill.md): sorted runs written to disk
  // when tracked usage crossed EngineOptions::memory_budget_bytes, their
  // total on-disk bytes, the reduce-side time spent streaming them back
  // through the k-way merge, and the run's tracked-allocation high-water
  // mark. spill_* are zero for in-memory runs; peak_tracked_bytes is
  // reported whenever a budget tracker was attached (even track-only).
  uint64_t spill_runs = 0;
  uint64_t spill_bytes = 0;
  double spill_merge_ms = 0;
  uint64_t peak_tracked_bytes = 0;

  // Morsel-driven map scheduling (docs/scheduling.md): record-aligned morsels
  // executed by the map phase, how many of them a worker stole from another
  // worker's deque, and the resolved morsel size in records (0 when the run
  // used one morsel per segment — single-slot runs and the forked children).
  uint64_t map_morsels = 0;
  uint64_t morsel_steals = 0;
  uint64_t morsel_target_records = 0;

  // Forked-mode fault tolerance (process_engine.h): worker respawns after a
  // failure, hang-watchdog kills, crash/truncation/corruption/protocol
  // failures, worker frames rejected by checksum/version validation (each
  // one also a crash), and segments executed in-process after the retry
  // budget was spent. All zero for the threaded engines and for clean forked
  // runs.
  uint64_t worker_retries = 0;
  uint64_t worker_timeouts = 0;
  uint64_t worker_crashes = 0;
  uint64_t wire_corrupt_frames = 0;
  uint64_t fallback_segments = 0;

  // Symbolic→concrete degradation (SYMPLE engines, docs/degradation.md):
  // (chunk, group) segments whose symbolic summary was replaced by concrete
  // replay, the records re-executed by those replays, and the per-reason
  // breakdown (indexed by DegradeReason). All zero for clean runs.
  uint64_t degraded_segments = 0;
  uint64_t replayed_records = 0;
  uint64_t degrade_reasons[kDegradeReasonCount] = {};

  // Group-table allocation/probing counters summed over all group tables the
  // run built (per-segment map tables + the sequential engine's global one):
  // arena bytes bump-allocated for payloads, index rebuilds while populated,
  // and probe-length totals (docs/group_map.md). avg probe length near 1 =
  // healthy table; climbing values mean clustering or under-sized hints.
  GroupMapStats group_map;

  // Symbolic exploration counters summed over all map tasks.
  ExplorationStats exploration;

  // OS resource deltas across the run (getrusage self + reaped children);
  // sampled=false when obs is disabled (SYMPLE_OBS_DISABLE=1).
  obs::RunResourceUsage rusage;

  double ThroughputMBps() const {
    if (total_wall_ms <= 0) {
      return 0;
    }
    return static_cast<double>(input_bytes) / 1e6 / (total_wall_ms / 1e3);
  }

  std::string OneLine() const {
    std::string out = "wall=" + internal::FormatFixed(total_wall_ms, 1) + "ms (map " +
                      internal::FormatFixed(map_wall_ms, 1) + ", shuffle " +
                      internal::FormatFixed(shuffle_wall_ms, 1) + ", reduce " +
                      internal::FormatFixed(reduce_wall_ms, 1) + ") index=" +
                      internal::FormatFixed(index_wall_ms, 2) + "ms cpu=" +
                      internal::FormatFixed(total_cpu_ms(), 1) + "ms shuffle=" +
                      internal::FormatFixed(static_cast<double>(shuffle_bytes) / 1e6, 2) +
                      "MB groups=" + std::to_string(groups) +
                      " partitions=" + std::to_string(reduce_partitions) +
                      " skew=" + internal::FormatFixed(partition_skew, 2) +
                      " summaries=" + std::to_string(summaries) +
                      " summary_paths=" + std::to_string(summary_paths);
    if (map_morsels > 0) {
      out += " morsels=" + std::to_string(map_morsels) +
             " steals=" + std::to_string(morsel_steals);
    }
    if (worker_retries + worker_timeouts + worker_crashes + wire_corrupt_frames +
            fallback_segments >
        0) {
      out += " worker_retries=" + std::to_string(worker_retries) +
             " worker_timeouts=" + std::to_string(worker_timeouts) +
             " worker_crashes=" + std::to_string(worker_crashes) +
             " wire_corrupt_frames=" + std::to_string(wire_corrupt_frames) +
             " fallback_segments=" + std::to_string(fallback_segments);
    }
    if (degraded_segments > 0) {
      out += " degraded_segments=" + std::to_string(degraded_segments) +
             " replayed_records=" + std::to_string(replayed_records);
    }
    if (spill_runs > 0) {
      out += " spill_runs=" + std::to_string(spill_runs) + " spill=" +
             internal::FormatFixed(static_cast<double>(spill_bytes) / 1e6, 2) +
             "MB spill_merge=" + internal::FormatFixed(spill_merge_ms, 1) + "ms";
    }
    if (peak_tracked_bytes > 0) {
      out += " peak_tracked=" +
             internal::FormatFixed(
                 static_cast<double>(peak_tracked_bytes) / 1e6, 2) +
             "MB";
    }
    if (group_map.arena_bytes > 0) {
      out += " arena=" +
             internal::FormatFixed(
                 static_cast<double>(group_map.arena_bytes) / 1e6, 2) +
             "MB rehashes=" + std::to_string(group_map.rehashes) +
             " probe=" + internal::FormatFixed(group_map.AvgProbeLen(), 2);
    }
    if (rusage.sampled) {
      out += " maxrss=" +
             internal::FormatFixed(
                 static_cast<double>(rusage.self.maxrss_kb) / 1024.0, 1) +
             "MB";
    }
    return out;
  }

  // JSON emitters, shared by the bench "stats" object (AppendJson) and the
  // RunReport, which places the same pieces under its own keys.

  // The scalar totals, as key/value pairs of the enclosing open object.
  void AppendTotalsFields(obs::JsonWriter& w) const {
    w.KV("total_wall_ms", total_wall_ms);
    w.KV("map_wall_ms", map_wall_ms);
    w.KV("index_wall_ms", index_wall_ms);
    w.KV("shuffle_wall_ms", shuffle_wall_ms);
    w.KV("reduce_wall_ms", reduce_wall_ms);
    w.KV("map_cpu_ms", map_cpu_ms);
    w.KV("reduce_cpu_ms", reduce_cpu_ms);
    w.KV("input_bytes", input_bytes);
    w.KV("input_records", input_records);
    w.KV("parsed_records", parsed_records);
    w.KV("shuffle_bytes", shuffle_bytes);
    w.KV("groups", groups);
    w.KV("reduce_partitions", reduce_partitions);
    w.KV("partition_skew", partition_skew);
    w.KV("summaries", summaries);
    w.KV("summary_paths", summary_paths);
    w.KV("throughput_mbps", ThroughputMBps());
    w.KV("map_morsels", map_morsels);
    w.KV("morsel_steals", morsel_steals);
    w.KV("morsel_target_records", morsel_target_records);
    w.KV("worker_retries", worker_retries);
    w.KV("worker_timeouts", worker_timeouts);
    w.KV("worker_crashes", worker_crashes);
    w.KV("fallback_segments", fallback_segments);
    w.KV("degraded_segments", degraded_segments);
    w.KV("replayed_records", replayed_records);
    w.KV("wire_corrupt_frames", wire_corrupt_frames);
    w.KV("arena_bytes", group_map.arena_bytes);
    w.KV("rehashes", group_map.rehashes);
    w.KV("avg_probe_len", group_map.AvgProbeLen());
    w.KV("spill_runs", spill_runs);
    w.KV("spill_bytes", spill_bytes);
    w.KV("spill_merge_ms", spill_merge_ms);
    w.KV("peak_tracked_bytes", peak_tracked_bytes);
  }

  // {reason name: segments} over every DegradeReason, so the schema is
  // stable whether or not anything degraded.
  void AppendDegradeReasonsJson(obs::JsonWriter& w) const {
    w.BeginObject();
    for (size_t i = 0; i < kDegradeReasonCount; ++i) {
      w.KV(DegradeReasonName(static_cast<DegradeReason>(i)), degrade_reasons[i]);
    }
    w.EndObject();
  }

  // The rusage deltas, as key/value pairs of the enclosing open object.
  void AppendRusageFields(obs::JsonWriter& w) const {
    w.KV("sampled", rusage.sampled);
    w.Key("self");
    obs::AppendResourceUsageJson(w, rusage.self);
    w.Key("children");
    obs::AppendResourceUsageJson(w, rusage.children);
  }

  void AppendExplorationJson(obs::JsonWriter& w) const {
    w.BeginObject();
    w.KV("runs", exploration.runs);
    w.KV("decisions", exploration.decisions);
    w.KV("paths_produced", exploration.paths_produced);
    w.KV("paths_merged", exploration.paths_merged);
    w.KV("merge_rounds", exploration.merge_rounds);
    w.KV("summary_restarts", exploration.summary_restarts);
    w.KV("live_path_peak", exploration.live_path_peak);
    w.EndObject();
  }

  // Appends the snapshot as one JSON object (used by the bench emitter).
  void AppendJson(obs::JsonWriter& w) const {
    w.BeginObject();
    AppendTotalsFields(w);
    w.Key("degrade_reasons");
    AppendDegradeReasonsJson(w);
    w.Key("rusage").BeginObject();
    AppendRusageFields(w);
    w.EndObject();
    w.Key("exploration");
    AppendExplorationJson(w);
    w.EndObject();
  }
};

}  // namespace symple

#endif  // SYMPLE_RUNTIME_ENGINE_STATS_H_
