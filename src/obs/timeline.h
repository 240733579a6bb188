// Run analyzer: folds the span ring into a per-run timeline model.
//
// BuildRunTimeline consumes one run's trace spans (filtered by Chrome-trace
// pid lane) plus the engine's measured stage walls and produces:
//
//   - per-stage wall-vs-CPU-vs-busy breakdown (map / shuffle / reduce /
//     concrete_replay),
//   - per-lane busy/idle utilization (one lane per mapper or reducer slot),
//   - the run's critical path across stage dependencies (map segments →
//     shuffle partitions → reduce runs), anchored on measured stage walls and
//     annotated with the last-finishing task of each stage,
//   - straggler detection (task wall > k·median of its stage) with skew
//     attribution tying reduce stragglers back to partition_skew and key-run
//     sizes carried on the span args.
//
// Inputs are TraceSpans plus the run's EngineStats (runtime/engine_stats.h,
// plain data) for the measured figures the span ring cannot carry.
#ifndef SYMPLE_OBS_TIMELINE_H_
#define SYMPLE_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/engine_stats.h"

namespace symple {
namespace obs {

class JsonWriter;

struct TimelineStage {
  std::string name;      // "map" | "shuffle" | "reduce" | "concrete_replay"
  double wall_ms = 0;    // measured stage wall (0 for concrete_replay: nested)
  double cpu_ms = 0;     // thread CPU charged to the stage (0 where unknown)
  double busy_ms = 0;    // sum of task span durations in the stage
  uint64_t tasks = 0;    // task spans observed
  double span_start_us = 0;  // envelope over the stage's spans
  double span_end_us = 0;
  // busy / (lanes * envelope): 1.0 means every lane worked wall-to-wall.
  double utilization = 0;
};

struct TimelineLane {
  std::string stage;  // "map" | "reduce"
  uint32_t tid = 0;
  uint64_t tasks = 0;
  double busy_us = 0;
  double utilization = 0;  // busy / stage envelope
};

struct CriticalPathEntry {
  std::string stage;
  double ms = 0;       // measured stage wall
  std::string detail;  // last-finishing task of the stage, when spans exist
};

struct TimelineStraggler {
  std::string stage;
  uint32_t tid = 0;
  double wall_ms = 0;
  double median_ms = 0;
  double ratio = 0;  // wall / median
  std::string attribution;
};

struct RunTimeline {
  bool built = false;  // false when no spans matched (e.g. obs disabled)
  double total_wall_ms = 0;
  std::vector<TimelineStage> stages;
  std::vector<TimelineLane> lanes;
  std::string bottleneck;  // stage with the largest measured wall
  // Stage-ordered critical path: the chain map→shuffle→reduce whose lengths
  // are the measured stage walls (stages with zero wall are omitted). Their
  // sum approximates total wall; coverage reports how closely.
  std::vector<CriticalPathEntry> critical_path;
  double critical_path_ms = 0;
  double critical_path_coverage = 0;  // critical_path_ms / total_wall_ms
  std::vector<TimelineStraggler> stragglers;  // sorted by ratio, descending
};

// Builds the timeline from `spans` belonging to trace-process `pid`. The
// stage walls, stage CPU and partition skew come from `stats`: measured
// stage walls are authoritative, spans provide the per-task detail inside
// each stage.
RunTimeline BuildRunTimeline(const std::vector<TraceSpan>& spans, uint32_t pid,
                             const EngineStats& stats);

// JSON values for the RunReport keys (objects/arrays, no surrounding key).
void AppendTimelineJson(JsonWriter& w, const RunTimeline& t);
void AppendCriticalPathJson(JsonWriter& w, const RunTimeline& t);
void AppendStragglersJson(JsonWriter& w, const RunTimeline& t);

// Appends the human-readable stage/critical-path/straggler sections used by
// `query_cli --explain` (rusage and model lines are added by the caller,
// which owns the full RunReport).
void AppendExplainText(const RunTimeline& t, std::string* out);

}  // namespace obs
}  // namespace symple

#endif  // SYMPLE_OBS_TIMELINE_H_
