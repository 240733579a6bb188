#include "obs/timeline.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "obs/json.h"

namespace symple {
namespace obs {

namespace {

constexpr const char* kStageMap = "map";
constexpr const char* kStageShuffle = "shuffle";
constexpr const char* kStageReduce = "reduce";
constexpr const char* kStageReplay = "concrete_replay";

// Straggler rule: task wall > kStragglerK x stage median, and the excess over
// the median must exceed kStragglerMinUs (absolute noise floor).
constexpr double kStragglerK = 2.0;
constexpr double kStragglerMinUs = 1000;

bool FindArg(const TraceSpan& span, const char* name, uint64_t* out) {
  for (const auto& [key, value] : span.args) {
    if (key == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

double SpanEnd(const TraceSpan& s) { return s.start_us + s.duration_us; }

// Median span duration in microseconds (average of the middle two for even
// counts); 0 for an empty set.
double MedianDurationUs(std::vector<double> durations) {
  if (durations.empty()) {
    return 0;
  }
  std::sort(durations.begin(), durations.end());
  const size_t n = durations.size();
  if (n % 2 == 1) {
    return durations[n / 2];
  }
  return (durations[n / 2 - 1] + durations[n / 2]) / 2.0;
}

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// Per-stage working set while scanning spans.
struct StageScan {
  std::vector<const TraceSpan*> spans;
  double busy_us = 0;
  double start_us = 0;
  double end_us = 0;

  void Add(const TraceSpan& s) {
    if (spans.empty() || s.start_us < start_us) {
      start_us = s.start_us;
    }
    if (spans.empty() || SpanEnd(s) > end_us) {
      end_us = SpanEnd(s);
    }
    spans.push_back(&s);
    busy_us += s.duration_us;
  }

  const TraceSpan* LastFinisher() const {
    const TraceSpan* last = nullptr;
    for (const TraceSpan* s : spans) {
      if (last == nullptr || SpanEnd(*s) > SpanEnd(*last)) {
        last = s;
      }
    }
    return last;
  }
};

void AddLanes(const StageScan& scan, const char* stage,
              std::vector<TimelineLane>* lanes) {
  // Group the stage's task spans by tid (one lane per mapper/reducer slot).
  std::vector<TimelineLane> local;
  for (const TraceSpan* s : scan.spans) {
    TimelineLane* lane = nullptr;
    for (TimelineLane& l : local) {
      if (l.tid == s->tid) {
        lane = &l;
        break;
      }
    }
    if (lane == nullptr) {
      local.push_back(TimelineLane{stage, s->tid, 0, 0, 0});
      lane = &local.back();
    }
    ++lane->tasks;
    lane->busy_us += s->duration_us;
  }
  const double envelope = scan.end_us - scan.start_us;
  for (TimelineLane& l : local) {
    l.utilization = envelope > 0 ? l.busy_us / envelope : 0;
  }
  std::sort(local.begin(), local.end(),
            [](const TimelineLane& a, const TimelineLane& b) { return a.tid < b.tid; });
  lanes->insert(lanes->end(), local.begin(), local.end());
}

TimelineStage MakeStage(const char* name, double wall_ms, double cpu_ms,
                        const StageScan& scan) {
  TimelineStage st;
  st.name = name;
  st.wall_ms = wall_ms;
  st.cpu_ms = cpu_ms;
  st.busy_ms = scan.busy_us / 1e3;
  st.tasks = scan.spans.size();
  st.span_start_us = scan.start_us;
  st.span_end_us = scan.end_us;
  // Distinct lanes touched by the stage.
  std::vector<uint32_t> tids;
  for (const TraceSpan* s : scan.spans) {
    if (std::find(tids.begin(), tids.end(), s->tid) == tids.end()) {
      tids.push_back(s->tid);
    }
  }
  const double envelope_us = scan.end_us - scan.start_us;
  if (!tids.empty() && envelope_us > 0) {
    st.utilization = scan.busy_us / (static_cast<double>(tids.size()) * envelope_us);
  }
  return st;
}

void DetectStragglers(const StageScan& scan, const char* stage,
                      double partition_skew,
                      std::vector<TimelineStraggler>* out) {
  if (scan.spans.size() < 2) {
    return;  // a median over one task is not a population
  }
  std::vector<double> durations;
  durations.reserve(scan.spans.size());
  for (const TraceSpan* s : scan.spans) {
    durations.push_back(s->duration_us);
  }
  const double median_us = MedianDurationUs(durations);
  for (const TraceSpan* s : scan.spans) {
    if (s->duration_us <= kStragglerK * median_us ||
        s->duration_us - median_us <= kStragglerMinUs) {
      continue;
    }
    TimelineStraggler str;
    str.stage = stage;
    str.tid = s->tid;
    str.wall_ms = s->duration_us / 1e3;
    str.median_ms = median_us / 1e3;
    str.ratio = median_us > 0 ? s->duration_us / median_us : 0;
    // Skew attribution from the span args the engines carry.
    uint64_t bytes = 0;
    uint64_t max_run = 0;
    uint64_t groups = 0;
    uint64_t records = 0;
    if (std::strcmp(stage, kStageReduce) == 0) {
      FindArg(*s, "bytes", &bytes);
      FindArg(*s, "max_run_bytes", &max_run);
      FindArg(*s, "groups", &groups);
      if (bytes > 0 && max_run * 2 >= bytes) {
        // One key run dominates this task's input: the heavy-key signature.
        str.attribution = Format(
            "dominated by one key run: %llu of %llu packet bytes "
            "(partition_skew %.2f)",
            static_cast<unsigned long long>(max_run),
            static_cast<unsigned long long>(bytes), partition_skew);
      } else {
        str.attribution = Format(
            "%llu groups, %llu packet bytes on this lane (partition_skew %.2f)",
            static_cast<unsigned long long>(groups),
            static_cast<unsigned long long>(bytes), partition_skew);
      }
    } else if (FindArg(*s, "records", &records)) {
      uint64_t morsels = 0;
      uint64_t stolen = 0;
      if (FindArg(*s, "morsels", &morsels) && morsels > 0) {
        // Morsel-scheduled map task: the scheduler already let other workers
        // steal from this segment, so a remaining straggle is data cost, not
        // dispatch granularity.
        FindArg(*s, "stolen", &stolen);
        str.attribution = Format(
            "scanned %llu records vs stage median task "
            "(%llu morsels, %llu stolen by other workers)",
            static_cast<unsigned long long>(records),
            static_cast<unsigned long long>(morsels),
            static_cast<unsigned long long>(stolen));
      } else {
        str.attribution =
            Format("scanned %llu records vs stage median task",
                   static_cast<unsigned long long>(records));
      }
    }
    out->push_back(std::move(str));
  }
  std::sort(out->begin(), out->end(),
            [](const TimelineStraggler& a, const TimelineStraggler& b) {
              return a.ratio > b.ratio;
            });
}

std::string LastFinisherDetail(const StageScan& scan, const char* stage) {
  const TraceSpan* last = scan.LastFinisher();
  if (last == nullptr) {
    return "";
  }
  uint64_t detail_value = 0;
  const char* detail_name = nullptr;
  if (std::strcmp(stage, kStageMap) == 0 &&
      FindArg(*last, "records", &detail_value)) {
    detail_name = "records";
  } else if (std::strcmp(stage, kStageReduce) == 0 &&
             FindArg(*last, "groups", &detail_value)) {
    detail_name = "groups";
  }
  std::string text = Format("ends with lane %u (%.1f ms",
                            last->tid, last->duration_us / 1e3);
  if (detail_name != nullptr) {
    text += Format(", %llu %s", static_cast<unsigned long long>(detail_value),
                   detail_name);
  }
  text += ")";
  return text;
}

}  // namespace

RunTimeline BuildRunTimeline(const std::vector<TraceSpan>& spans, uint32_t pid,
                             const EngineStats& stats) {
  RunTimeline t;
  t.total_wall_ms = stats.total_wall_ms;

  StageScan map_scan;
  StageScan shuffle_scan;
  StageScan reduce_scan;
  StageScan replay_scan;
  for (const TraceSpan& s : spans) {
    if (s.pid != pid) {
      continue;
    }
    if (s.name == "map_task") {
      map_scan.Add(s);
    } else if (s.name == "reduce_task") {
      reduce_scan.Add(s);
    } else if (s.name == "shuffle_sort") {
      shuffle_scan.Add(s);
    } else if (s.name.rfind("segment_degraded:", 0) == 0) {
      replay_scan.Add(s);
    }
  }
  t.built = !map_scan.spans.empty() || !reduce_scan.spans.empty() ||
            !shuffle_scan.spans.empty();
  if (!t.built) {
    return t;
  }

  t.stages.push_back(
      MakeStage(kStageMap, stats.map_wall_ms, stats.map_cpu_ms, map_scan));
  t.stages.push_back(MakeStage(kStageShuffle, stats.shuffle_wall_ms, 0, shuffle_scan));
  t.stages.push_back(
      MakeStage(kStageReduce, stats.reduce_wall_ms, stats.reduce_cpu_ms, reduce_scan));
  // Concrete replay runs inside reduce tasks, so it carries no wall of its
  // own — its busy time shows how much of the reduce stage re-parsed input.
  t.stages.push_back(MakeStage(kStageReplay, 0, 0, replay_scan));

  AddLanes(map_scan, kStageMap, &t.lanes);
  AddLanes(reduce_scan, kStageReduce, &t.lanes);

  // Critical path: each stage is a barrier (map segments → shuffle partitions
  // → reduce runs), so the run's critical path threads the longest chain
  // through every stage and its length is the sum of measured stage walls.
  const struct {
    const char* name;
    double wall_ms;
    const StageScan* scan;
  } chain[] = {
      {kStageMap, stats.map_wall_ms, &map_scan},
      {kStageShuffle, stats.shuffle_wall_ms, &shuffle_scan},
      {kStageReduce, stats.reduce_wall_ms, &reduce_scan},
  };
  for (const auto& link : chain) {
    if (link.wall_ms <= 0) {
      continue;
    }
    CriticalPathEntry entry;
    entry.stage = link.name;
    entry.ms = link.wall_ms;
    entry.detail = LastFinisherDetail(*link.scan, link.name);
    t.critical_path_ms += entry.ms;
    t.critical_path.push_back(std::move(entry));
  }
  t.critical_path_coverage =
      stats.total_wall_ms > 0 ? t.critical_path_ms / stats.total_wall_ms : 0;

  double best_wall = -1;
  for (const auto& link : chain) {
    if (link.wall_ms > best_wall) {
      best_wall = link.wall_ms;
      t.bottleneck = link.name;
    }
  }

  DetectStragglers(map_scan, kStageMap, stats.partition_skew, &t.stragglers);
  DetectStragglers(reduce_scan, kStageReduce, stats.partition_skew, &t.stragglers);
  return t;
}

void AppendTimelineJson(JsonWriter& w, const RunTimeline& t) {
  w.BeginObject();
  w.KV("built", t.built);
  w.KV("total_wall_ms", t.total_wall_ms);
  w.KV("bottleneck", t.bottleneck);
  w.Key("stages").BeginArray();
  for (const TimelineStage& st : t.stages) {
    w.BeginObject();
    w.KV("name", st.name);
    w.KV("wall_ms", st.wall_ms);
    w.KV("cpu_ms", st.cpu_ms);
    w.KV("busy_ms", st.busy_ms);
    w.KV("tasks", st.tasks);
    w.KV("span_start_us", st.span_start_us);
    w.KV("span_end_us", st.span_end_us);
    w.KV("utilization", st.utilization);
    w.EndObject();
  }
  w.EndArray();
  w.Key("lanes").BeginArray();
  for (const TimelineLane& l : t.lanes) {
    w.BeginObject();
    w.KV("stage", l.stage);
    w.KV("tid", static_cast<uint64_t>(l.tid));
    w.KV("tasks", l.tasks);
    w.KV("busy_us", l.busy_us);
    w.KV("utilization", l.utilization);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void AppendCriticalPathJson(JsonWriter& w, const RunTimeline& t) {
  w.BeginObject();
  w.KV("total_ms", t.critical_path_ms);
  w.KV("measured_wall_ms", t.total_wall_ms);
  w.KV("coverage", t.critical_path_coverage);
  w.Key("stages").BeginArray();
  for (const CriticalPathEntry& e : t.critical_path) {
    w.BeginObject();
    w.KV("stage", e.stage);
    w.KV("ms", e.ms);
    w.KV("detail", e.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void AppendStragglersJson(JsonWriter& w, const RunTimeline& t) {
  w.BeginArray();
  for (const TimelineStraggler& s : t.stragglers) {
    w.BeginObject();
    w.KV("stage", s.stage);
    w.KV("tid", static_cast<uint64_t>(s.tid));
    w.KV("wall_ms", s.wall_ms);
    w.KV("median_ms", s.median_ms);
    w.KV("ratio", s.ratio);
    w.KV("attribution", s.attribution);
    w.EndObject();
  }
  w.EndArray();
}

void AppendExplainText(const RunTimeline& t, std::string* out) {
  if (!t.built) {
    *out += "  (no spans recorded — tracing disabled?)\n";
    return;
  }
  *out += Format("  %-16s %10s %10s %10s %6s %6s\n", "stage", "wall", "cpu",
                 "busy", "tasks", "util");
  for (const TimelineStage& st : t.stages) {
    if (st.name == kStageReplay && st.tasks == 0) {
      continue;  // replay row only when segments actually degraded
    }
    *out += Format("  %-16s %8.1fms %8.1fms %8.1fms %6llu %5.0f%%\n",
                   st.name.c_str(), st.wall_ms, st.cpu_ms, st.busy_ms,
                   static_cast<unsigned long long>(st.tasks),
                   st.utilization * 100);
  }
  const double share = t.total_wall_ms > 0 && !t.bottleneck.empty()
                           ? [&] {
                               for (const TimelineStage& st : t.stages) {
                                 if (st.name == t.bottleneck) {
                                   return st.wall_ms / t.total_wall_ms * 100;
                                 }
                               }
                               return 0.0;
                             }()
                           : 0.0;
  *out += Format("  bottleneck: %s (%.0f%% of %.1f ms total wall)\n",
                 t.bottleneck.c_str(), share, t.total_wall_ms);
  *out += Format("  critical path: %.1f ms (%.0f%% of measured wall)\n",
                 t.critical_path_ms, t.critical_path_coverage * 100);
  for (const CriticalPathEntry& e : t.critical_path) {
    *out += Format("    %-10s %8.1fms  %s\n", e.stage.c_str(), e.ms,
                   e.detail.c_str());
  }
  if (t.stragglers.empty()) {
    *out += "  stragglers: none\n";
  } else {
    *out += "  stragglers (wall > k x stage median):\n";
    for (const TimelineStraggler& s : t.stragglers) {
      *out += Format("    %s lane %u: %.1f ms vs median %.1f ms (%.1fx) — %s\n",
                     s.stage.c_str(), s.tid, s.wall_ms, s.median_ms, s.ratio,
                     s.attribution.c_str());
    }
  }
}

}  // namespace obs
}  // namespace symple
