#include "obs/report.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace symple {
namespace obs {

MapTaskObs& MapTaskObs::operator+=(const MapTaskObs& o) {
  if (o.end_us > 0) {
    start_us = end_us > 0 ? std::min(start_us, o.start_us) : o.start_us;
    end_us = std::max(end_us, o.end_us);
  }
  cpu_ms += o.cpu_ms;
  records += o.records;
  parsed += o.parsed;
  packets += o.packets;
  bytes += o.bytes;
  summaries += o.summaries;
  summary_paths += o.summary_paths;
  exploration += o.exploration;
  group_map += o.group_map;
  maxrss_kb = std::max(maxrss_kb, o.maxrss_kb);
  morsels += o.morsels;
  stolen_morsels += o.stolen_morsels;
  queue_wait_us.Merge(o.queue_wait_us);
  paths_per_group.Merge(o.paths_per_group);
  summaries_per_group.Merge(o.summaries_per_group);
  return *this;
}

void AppendHistogramJson(JsonWriter& w, const HistogramSnapshot& h) {
  w.BeginObject();
  w.KV("count", h.count);
  w.KV("sum", h.sum);
  w.KV("min", h.min);
  w.KV("max", h.max);
  w.KV("mean", h.Mean());
  w.KV("p50", h.Quantile(0.50));
  w.KV("p95", h.Quantile(0.95));
  w.EndObject();
}

void RunReport::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.KV("schema", "symple.run_report/1");
  w.KV("query", query);
  w.KV("engine", engine);

  w.Key("config").BeginObject();
  for (const auto& [key, value] : config) {
    w.KV(key, value);
  }
  w.EndObject();

  w.Key("totals").BeginObject();
  totals.AppendTotalsFields(w);
  w.EndObject();

  w.Key("exploration");
  totals.AppendExplorationJson(w);

  w.Key("map_tasks").BeginObject();
  w.KV("count", map_task_count);
  w.Key("wall_us");
  AppendHistogramJson(w, map_wall_us);
  w.Key("cpu_us");
  AppendHistogramJson(w, map_cpu_us);
  w.Key("parsed_records");
  AppendHistogramJson(w, map_parsed_records);
  w.Key("packets");
  AppendHistogramJson(w, map_packets);
  w.Key("shuffle_bytes");
  AppendHistogramJson(w, map_shuffle_bytes);
  w.Key("summary_paths");
  AppendHistogramJson(w, map_summary_paths);
  w.Key("morsels");
  AppendHistogramJson(w, map_morsels_per_task);
  w.Key("morsel_queue_wait_us");
  AppendHistogramJson(w, map_morsel_queue_wait_us);
  w.EndObject();

  w.Key("reduce_tasks").BeginObject();
  w.KV("count", reduce_task_count);
  w.Key("wall_us");
  AppendHistogramJson(w, reduce_wall_us);
  w.Key("cpu_us");
  AppendHistogramJson(w, reduce_cpu_us);
  w.Key("groups");
  AppendHistogramJson(w, reduce_groups);
  w.Key("queue_wait_us");
  AppendHistogramJson(w, reduce_queue_wait_us);
  w.EndObject();

  w.Key("shuffle").BeginObject();
  w.KV("partition_count", shuffle_partition_count);
  w.Key("partition_bytes");
  AppendHistogramJson(w, shuffle_partition_bytes);
  w.Key("partition_packets");
  AppendHistogramJson(w, shuffle_partition_packets);
  w.Key("partition_runs");
  AppendHistogramJson(w, shuffle_partition_runs);
  w.EndObject();

  w.Key("groups").BeginObject();
  w.Key("paths_per_group");
  AppendHistogramJson(w, paths_per_group);
  w.Key("summaries_per_group");
  AppendHistogramJson(w, summaries_per_group);
  w.EndObject();

  w.Key("degrades").BeginObject();
  w.KV("events", degraded_segment_events);
  w.Key("reasons");
  totals.AppendDegradeReasonsJson(w);
  w.Key("messages").BeginArray();
  for (const std::string& message : degrade_messages) {
    w.String(message);
  }
  w.EndArray();
  w.EndObject();

  w.Key("timeline");
  AppendTimelineJson(w, timeline);
  w.Key("critical_path");
  AppendCriticalPathJson(w, timeline);
  w.Key("stragglers");
  AppendStragglersJson(w, timeline);

  w.Key("rusage").BeginObject();
  totals.AppendRusageFields(w);
  w.Key("worker_maxrss_kb");
  AppendHistogramJson(w, worker_maxrss_kb);
  w.EndObject();

  w.Key("model_error").BeginObject();
  w.KV("present", model_error.present);
  w.Key("predicted_ms").BeginObject();
  w.KV("map", model_error.predicted_map_ms);
  w.KV("shuffle", model_error.predicted_shuffle_ms);
  w.KV("reduce", model_error.predicted_reduce_ms);
  w.KV("total", model_error.predicted_total_ms);
  w.EndObject();
  w.Key("measured_ms").BeginObject();
  w.KV("map", model_error.measured_map_ms);
  w.KV("shuffle", model_error.measured_shuffle_ms);
  w.KV("reduce", model_error.measured_reduce_ms);
  w.KV("total", model_error.measured_total_ms);
  w.EndObject();
  w.Key("error_pct").BeginObject();
  w.KV("map", model_error.map_error_pct);
  w.KV("shuffle", model_error.shuffle_error_pct);
  w.KV("reduce", model_error.reduce_error_pct);
  w.KV("total", model_error.total_error_pct);
  w.EndObject();
  w.EndObject();

  w.KV("worker_failures", worker_failures);
  w.KV("dropped_spans", dropped_spans);
  w.EndObject();
}

std::string FormatExplainText(const RunReport& report) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "=== %s · %s ===\n", report.query.c_str(),
                report.engine.c_str());
  out += buf;
  AppendExplainText(report.timeline, &out);
  if (report.totals.index_wall_ms > 0) {
    std::snprintf(buf, sizeof(buf), "  input index: %.2f ms of map %.1f ms\n",
                  report.totals.index_wall_ms, report.totals.map_wall_ms);
    out += buf;
  }
  const RunResourceUsage& rusage = report.totals.rusage;
  if (rusage.sampled) {
    std::snprintf(buf, sizeof(buf),
                  "  resources: maxrss %llu KB self / %llu KB children, "
                  "%llu major faults, %llu invol ctx switches\n",
                  static_cast<unsigned long long>(rusage.self.maxrss_kb),
                  static_cast<unsigned long long>(rusage.children.maxrss_kb),
                  static_cast<unsigned long long>(rusage.self.major_faults +
                                                  rusage.children.major_faults),
                  static_cast<unsigned long long>(rusage.self.invol_ctx_switches +
                                                  rusage.children.invol_ctx_switches));
    out += buf;
  }
  if (report.model_error.present) {
    std::snprintf(buf, sizeof(buf),
                  "  model check: predicted map %.1f / shuffle %.1f / reduce "
                  "%.1f ms vs measured %.1f / %.1f / %.1f ms "
                  "(total error %+.0f%%)\n",
                  report.model_error.predicted_map_ms,
                  report.model_error.predicted_shuffle_ms,
                  report.model_error.predicted_reduce_ms,
                  report.model_error.measured_map_ms,
                  report.model_error.measured_shuffle_ms,
                  report.model_error.measured_reduce_ms,
                  report.model_error.total_error_pct);
    out += buf;
  }
  if (report.timeline.built && report.totals.degraded_segments > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  degradation: %llu segments replayed concretely "
                  "(%llu records)\n",
                  static_cast<unsigned long long>(report.totals.degraded_segments),
                  static_cast<unsigned long long>(report.totals.replayed_records));
    out += buf;
  }
  return out;
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  AppendJson(w);
  return w.TakeString();
}

RunObserver::RunObserver(std::string engine, Tracer* tracer, uint32_t trace_pid)
    : tracer_(tracer), trace_pid_(trace_pid) {
  observed_.engine = std::move(engine);
  if (tracer_ != nullptr) {
    tracer_->NameProcess(trace_pid_, observed_.engine);
  }
}

void RunObserver::OnMapTask(const MapTaskObs& t) {
  RunReport& r = observed_;
  ++r.map_task_count;
  const uint64_t wall_us =
      t.end_us > t.start_us ? static_cast<uint64_t>(t.end_us - t.start_us) : 0;
  const uint64_t cpu_us = static_cast<uint64_t>(t.cpu_ms * 1e3);
  r.map_wall_us.Record(wall_us);
  r.map_cpu_us.Record(cpu_us);
  r.map_parsed_records.Record(t.parsed);
  r.map_packets.Record(t.packets);
  r.map_shuffle_bytes.Record(t.bytes);
  r.map_summary_paths.Record(t.summary_paths);
  if (t.maxrss_kb > 0) {
    r.worker_maxrss_kb.Record(t.maxrss_kb);
  }
  if (t.morsels > 0) {
    // Only morsel-scheduled tasks contribute: forked children run segments
    // whole, and mixing their zeros in would flatten the distribution.
    r.map_morsels_per_task.Record(t.morsels);
    r.map_morsel_queue_wait_us.Merge(t.queue_wait_us);
  }
  r.paths_per_group.Merge(t.paths_per_group);
  r.summaries_per_group.Merge(t.summaries_per_group);

  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = "map_task";
    span.category = "map";
    span.pid = trace_pid_;
    span.tid = t.mapper_id;
    span.start_us = t.start_us;
    span.duration_us = t.end_us - t.start_us;
    span.args.emplace_back("records", t.records);
    span.args.emplace_back("parsed", t.parsed);
    span.args.emplace_back("packets", t.packets);
    span.args.emplace_back("bytes", t.bytes);
    if (t.maxrss_kb > 0) {
      span.args.emplace_back("maxrss_kb", t.maxrss_kb);
    }
    if (t.morsels > 0) {
      span.args.emplace_back("morsels", t.morsels);
      span.args.emplace_back("stolen", t.stolen_morsels);
    }
    if (t.summaries > 0) {
      span.args.emplace_back("summaries", t.summaries);
      span.args.emplace_back("summary_paths", t.summary_paths);
      span.args.emplace_back("sym_runs", t.exploration.runs);
      span.args.emplace_back("sym_decisions", t.exploration.decisions);
      span.args.emplace_back("sym_paths_merged", t.exploration.paths_merged);
      span.args.emplace_back("sym_restarts", t.exploration.summary_restarts);
    }
    tracer_->Record(std::move(span));
  }
}

void RunObserver::OnReduceTask(const ReduceTaskObs& t) {
  ++observed_.reduce_task_count;
  const uint64_t wall_us =
      t.end_us > t.start_us ? static_cast<uint64_t>(t.end_us - t.start_us) : 0;
  const uint64_t cpu_us = static_cast<uint64_t>(t.cpu_ms * 1e3);
  observed_.reduce_wall_us.Record(wall_us);
  observed_.reduce_cpu_us.Record(cpu_us);
  observed_.reduce_groups.Record(t.groups);
  observed_.reduce_queue_wait_us.Merge(t.queue_wait_us);

  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = "reduce_task";
    span.category = "reduce";
    span.pid = trace_pid_;
    span.tid = t.reducer_id;
    span.start_us = t.start_us;
    span.duration_us = t.end_us - t.start_us;
    span.args.emplace_back("groups", t.groups);
    span.args.emplace_back("packets", t.packets);
    span.args.emplace_back("bytes", t.bytes);
    span.args.emplace_back("max_run_bytes", t.max_run_bytes);
    if (t.queue_wait_us.count > 0) {
      span.args.emplace_back("queue_wait_us_p95", t.queue_wait_us.Quantile(0.95));
    }
    tracer_->Record(std::move(span));
  }
}

void RunObserver::OnShufflePartition(uint32_t partition_id, uint64_t bytes,
                                     uint64_t packets, uint64_t runs) {
  ++observed_.shuffle_partition_count;
  observed_.shuffle_partition_bytes.Record(bytes);
  observed_.shuffle_partition_packets.Record(packets);
  observed_.shuffle_partition_runs.Record(runs);

  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = "shuffle_partition";
    span.category = "shuffle";
    span.pid = trace_pid_;
    span.tid = partition_id;
    span.start_us = NowUs();
    span.duration_us = 0;
    span.args.emplace_back("bytes", bytes);
    span.args.emplace_back("packets", packets);
    span.args.emplace_back("runs", runs);
    tracer_->Record(std::move(span));
  }
}

void RunObserver::OnWorkerFailure(uint32_t worker_id, const std::string& kind) {
  ++observed_.worker_failures;
  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = "worker_failure:" + kind;
    span.category = "fault";
    span.pid = trace_pid_;
    span.tid = worker_id;
    span.start_us = NowUs();
    span.duration_us = 0;
    span.args.emplace_back("worker", worker_id);
    tracer_->Record(std::move(span));
  }
}

void RunObserver::OnSegmentDegraded(uint32_t segment_id,
                                    const std::string& reason,
                                    const std::string& message,
                                    double replay_ms) {
  ++observed_.degraded_segment_events;
  if (observed_.degrade_messages.size() < kMaxDegradeMessages && !message.empty()) {
    observed_.degrade_messages.push_back(message);
  }
  if (tracer_ != nullptr) {
    TraceSpan span;
    span.name = "segment_degraded:" + reason;
    span.category = "degrade";
    span.pid = trace_pid_;
    span.tid = segment_id;
    // Degrades are folded in after the pool quiesces, so the span is placed
    // retroactively: it ends now and extends back by the replay time (which
    // always fits inside the run, keeping the span in-epoch).
    double duration_us = replay_ms > 0 ? replay_ms * 1e3 : 0;
    const double now_us = NowUs();
    if (duration_us > now_us) {
      duration_us = now_us;
    }
    span.start_us = now_us - duration_us;
    span.duration_us = duration_us;
    span.args.emplace_back("segment", segment_id);
    tracer_->Record(std::move(span));
  }
}

void RunObserver::OnPhase(const std::string& name, double start_us, double end_us,
                          uint64_t detail, const std::string& detail_key) {
  if (tracer_ == nullptr) {
    return;
  }
  TraceSpan span;
  span.name = name;
  span.category = "engine";
  span.pid = trace_pid_;
  span.tid = 0;
  span.start_us = start_us;
  span.duration_us = end_us - start_us;
  if (!detail_key.empty()) {
    span.args.emplace_back(detail_key, detail);
  }
  tracer_->Record(std::move(span));
}

void RunObserver::FillReport(RunReport* report) const {
  *report = observed_;
  report->dropped_spans = tracer_ != nullptr ? tracer_->dropped() : 0;
}

}  // namespace obs
}  // namespace symple
