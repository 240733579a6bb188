// Stats-schema smoke check, wired into tier-1 ctest: runs one tiny benchmark
// per engine (threaded sequential/baseline/SYMPLE, the forked-process SYMPLE,
// and a force-degraded SYMPLE run), emits every observability artifact — BENCH_smoke.json via the
// bench emitter, a RunReport, and a Chrome trace — then re-parses each one
// and asserts the required keys exist. A schema regression in any emitter
// fails this binary, and therefore tier-1, before any downstream tooling
// notices.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

int g_failures = 0;

void Require(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

const obs::JsonValue* RequireKey(const obs::JsonValue& v, const std::string& key) {
  const obs::JsonValue* found = v.Find(key);
  Require(found != nullptr, "missing key '" + key + "'");
  return found;
}

void RequireNumberKey(const obs::JsonValue& v, const std::string& key) {
  const obs::JsonValue* found = RequireKey(v, key);
  if (found != nullptr) {
    Require(found->is_number(), "key '" + key + "' is not a number");
  }
}

void CheckHistogram(const obs::JsonValue* h, const std::string& label) {
  Require(h != nullptr && h->is_object(), label + " histogram missing");
  if (h == nullptr) {
    return;
  }
  for (const char* key : {"count", "sum", "min", "max", "mean", "p50", "p95"}) {
    RequireNumberKey(*h, key);
  }
}

void CheckExploration(const obs::JsonValue* exploration) {
  Require(exploration != nullptr && exploration->is_object(), "exploration object");
  if (exploration == nullptr) {
    return;
  }
  for (const char* key : {"runs", "decisions", "paths_produced", "paths_merged",
                          "merge_rounds", "summary_restarts", "live_path_peak"}) {
    RequireNumberKey(*exploration, key);
  }
}

void CheckRunReport(const obs::JsonValue& report, bool expect_exploration) {
  const obs::JsonValue* schema = RequireKey(report, "schema");
  Require(schema != nullptr && schema->string_value == "symple.run_report/1",
          "run_report schema tag");
  RequireKey(report, "query");
  RequireKey(report, "engine");
  RequireKey(report, "config");
  const obs::JsonValue* totals = RequireKey(report, "totals");
  if (totals != nullptr) {
    for (const char* key :
         {"total_wall_ms", "map_wall_ms", "shuffle_wall_ms", "reduce_wall_ms",
          "map_cpu_ms", "reduce_cpu_ms", "input_bytes", "input_records",
          "parsed_records", "shuffle_bytes", "groups", "reduce_partitions",
          "partition_skew", "summaries", "summary_paths",
          "throughput_mbps", "map_morsels", "morsel_steals",
          "morsel_target_records",
          "worker_retries", "worker_timeouts", "worker_crashes",
          "fallback_segments", "degraded_segments", "replayed_records",
          "wire_corrupt_frames", "arena_bytes", "rehashes", "avg_probe_len",
          "spill_runs", "spill_bytes", "spill_merge_ms",
          "peak_tracked_bytes"}) {
      RequireNumberKey(*totals, key);
    }
  }
  const obs::JsonValue* degrades = RequireKey(report, "degrades");
  if (degrades != nullptr) {
    RequireNumberKey(*degrades, "events");
    const obs::JsonValue* reasons = RequireKey(*degrades, "reasons");
    Require(reasons != nullptr && reasons->is_object(), "degrades.reasons is an object");
    if (reasons != nullptr) {
      for (const char* key : {"forced", "path_explosion", "path_budget", "summary_bytes",
                              "overflow", "unsupported_op", "wire_corrupt", "other",
                              "memory_budget"}) {
        RequireNumberKey(*reasons, key);
      }
    }
  }
  const obs::JsonValue* exploration = RequireKey(report, "exploration");
  CheckExploration(exploration);
  if (exploration != nullptr && expect_exploration) {
    const obs::JsonValue* runs = exploration->Find("runs");
    Require(runs != nullptr && runs->number > 0, "symple exploration.runs > 0");
  }
  const obs::JsonValue* map_tasks = RequireKey(report, "map_tasks");
  if (map_tasks != nullptr) {
    RequireNumberKey(*map_tasks, "count");
    CheckHistogram(map_tasks->Find("wall_us"), "map_tasks.wall_us");
    CheckHistogram(map_tasks->Find("cpu_us"), "map_tasks.cpu_us");
    CheckHistogram(map_tasks->Find("morsels"), "map_tasks.morsels");
    CheckHistogram(map_tasks->Find("morsel_queue_wait_us"),
                   "map_tasks.morsel_queue_wait_us");
  }
  const obs::JsonValue* reduce_tasks = RequireKey(report, "reduce_tasks");
  if (reduce_tasks != nullptr) {
    RequireNumberKey(*reduce_tasks, "count");
    CheckHistogram(reduce_tasks->Find("wall_us"), "reduce_tasks.wall_us");
    CheckHistogram(reduce_tasks->Find("queue_wait_us"), "reduce_tasks.queue_wait_us");
  }
  const obs::JsonValue* shuffle = RequireKey(report, "shuffle");
  if (shuffle != nullptr) {
    RequireNumberKey(*shuffle, "partition_count");
    CheckHistogram(shuffle->Find("partition_bytes"), "shuffle.partition_bytes");
    CheckHistogram(shuffle->Find("partition_packets"), "shuffle.partition_packets");
    CheckHistogram(shuffle->Find("partition_runs"), "shuffle.partition_runs");
  }
  RequireKey(report, "groups");

  // Run-analyzer keys (timeline / critical path / stragglers / rusage /
  // model_error) — present on every report; timeline.built is true whenever
  // the run was traced.
  const obs::JsonValue* timeline = RequireKey(report, "timeline");
  if (timeline != nullptr) {
    Require(timeline->is_object(), "timeline is an object");
    const obs::JsonValue* built = RequireKey(*timeline, "built");
    Require(built != nullptr && built->bool_value, "timeline.built is true");
    RequireNumberKey(*timeline, "total_wall_ms");
    RequireKey(*timeline, "bottleneck");
    const obs::JsonValue* stages = RequireKey(*timeline, "stages");
    Require(stages != nullptr && stages->is_array() && stages->array.size() == 4,
            "timeline.stages has map/shuffle/reduce/concrete_replay rows");
    if (stages != nullptr && stages->is_array()) {
      for (const obs::JsonValue& s : stages->array) {
        RequireKey(s, "name");
        RequireNumberKey(s, "wall_ms");
        RequireNumberKey(s, "busy_ms");
        RequireNumberKey(s, "tasks");
        RequireNumberKey(s, "utilization");
      }
    }
    const obs::JsonValue* lanes = RequireKey(*timeline, "lanes");
    Require(lanes != nullptr && lanes->is_array(), "timeline.lanes is an array");
  }
  const obs::JsonValue* critical = RequireKey(report, "critical_path");
  if (critical != nullptr) {
    RequireNumberKey(*critical, "total_ms");
    RequireNumberKey(*critical, "measured_wall_ms");
    RequireNumberKey(*critical, "coverage");
    const obs::JsonValue* cp_stages = RequireKey(*critical, "stages");
    Require(cp_stages != nullptr && cp_stages->is_array(),
            "critical_path.stages is an array");
  }
  const obs::JsonValue* stragglers = RequireKey(report, "stragglers");
  Require(stragglers != nullptr && stragglers->is_array(),
          "stragglers is an array");
  const obs::JsonValue* rusage = RequireKey(report, "rusage");
  if (rusage != nullptr) {
    const obs::JsonValue* sampled = RequireKey(*rusage, "sampled");
    Require(sampled != nullptr && sampled->bool_value,
            "rusage.sampled is true when observability is on");
    for (const char* who : {"self", "children"}) {
      const obs::JsonValue* u = RequireKey(*rusage, who);
      if (u != nullptr) {
        RequireNumberKey(*u, "user_ms");
        RequireNumberKey(*u, "sys_ms");
        RequireNumberKey(*u, "maxrss_kb");
        RequireNumberKey(*u, "major_faults");
        RequireNumberKey(*u, "invol_ctx_switches");
      }
    }
    RequireKey(*rusage, "worker_maxrss_kb");
  }
  const obs::JsonValue* model_error = RequireKey(report, "model_error");
  if (model_error != nullptr) {
    const obs::JsonValue* present = RequireKey(*model_error, "present");
    Require(present != nullptr && present->bool_value,
            "model_error.present is true for a completed run");
    for (const char* group : {"predicted_ms", "measured_ms", "error_pct"}) {
      const obs::JsonValue* g = RequireKey(*model_error, group);
      if (g != nullptr) {
        RequireNumberKey(*g, "map");
        RequireNumberKey(*g, "shuffle");
        RequireNumberKey(*g, "reduce");
        RequireNumberKey(*g, "total");
      }
    }
  }
}

}  // namespace
}  // namespace symple

int main() {
  using namespace symple;

  if (!obs::Enabled()) {
    // The schema checks require live instrumentation; with SYMPLE_OBS_DISABLE
    // set there is nothing to validate.
    std::printf("bench_smoke: observability disabled via SYMPLE_OBS_DISABLE, "
                "skipping\n");
    return 0;
  }

  bench::BenchReport::Open("smoke");

  GithubGenParams p;
  p.num_records = 4000;
  p.num_segments = 6;
  p.num_repos = 60;
  p.filler_bytes = 8;
  const Dataset data = GenerateGithubLog(p);

  obs::Tracer tracer;
  std::vector<obs::RunReport> reports;

  EngineOptions seq_opts;
  obs::RunObserver seq_obs("sequential", &tracer, 1);
  seq_opts.observer = &seq_obs;
  const auto seq = RunSequential<G1OnlyPushes>(data, seq_opts);
  bench::BenchReport::AddRun("G1", "sequential", "1 thread", seq.stats);
  Require(seq.stats.group_map.arena_bytes > 0,
          "sequential grouping reports arena bytes");
  reports.push_back(MakeRunReport("G1", "sequential", seq_opts, seq.stats, &seq_obs));

  EngineOptions mr_opts;
  obs::RunObserver mr_obs("mapreduce", &tracer, 2);
  mr_opts.observer = &mr_obs;
  const auto mr = RunBaselineMapReduce<G1OnlyPushes>(data, mr_opts);
  bench::BenchReport::AddRun("G1", "mapreduce", "4x4 slots", mr.stats);
  reports.push_back(MakeRunReport("G1", "mapreduce", mr_opts, mr.stats, &mr_obs));
  Require(mr.outputs == seq.outputs, "mapreduce output equals sequential");
  Require(mr.stats.shuffle_wall_ms > 0,
          "baseline mapreduce populates shuffle_wall_ms");

  EngineOptions sym_opts;
  obs::RunObserver sym_obs("symple", &tracer, 3);
  sym_opts.observer = &sym_obs;
  const auto sym = RunSymple<G1OnlyPushes>(data, sym_opts);
  bench::BenchReport::AddRun("G1", "symple", "4x4 slots", sym.stats);
  reports.push_back(MakeRunReport("G1", "symple", sym_opts, sym.stats, &sym_obs));
  Require(sym.outputs == seq.outputs, "symple output equals sequential");
  Require(sym.stats.reduce_partitions == sym_opts.reduce_slots,
          "symple auto partition count equals reduce slots");
  Require(sym.stats.partition_skew >= 1.0,
          "non-empty shuffle reports partition skew >= 1");

  EngineOptions forked_opts;
  forked_opts.map_slots = 2;
  obs::RunObserver forked_obs("symple_forked", &tracer, 4);
  forked_opts.observer = &forked_obs;
  const auto forked = RunSympleForked<G1OnlyPushes>(data, forked_opts);
  bench::BenchReport::AddRun("G1", "symple_forked", "2 processes", forked.stats);
  reports.push_back(
      MakeRunReport("G1", "symple_forked", forked_opts, forked.stats, &forked_obs));
  Require(forked.outputs == seq.outputs, "forked symple output equals sequential");

  EngineOptions degrade_opts;
  degrade_opts.budgets.force_degrade = true;
  obs::RunObserver degrade_obs("symple_degraded", &tracer, 5);
  degrade_opts.observer = &degrade_obs;
  const auto degraded = RunSymple<G1OnlyPushes>(data, degrade_opts);
  bench::BenchReport::AddRun("G1", "symple_degraded", "forced degrade", degraded.stats);
  reports.push_back(MakeRunReport("G1", "symple_degraded", degrade_opts,
                                  degraded.stats, &degrade_obs));
  Require(degraded.outputs == seq.outputs,
          "force-degraded symple output equals sequential");
  Require(degraded.stats.degraded_segments > 0,
          "force-degraded run records degraded segments");

  // --- validate the RunReport JSON ----------------------------------------------
  for (size_t i = 0; i < reports.size(); ++i) {
    obs::JsonValue doc;
    std::string error;
    Require(obs::ParseJson(reports[i].ToJson(), &doc, &error),
            "run report " + reports[i].engine + " parses: " + error);
    CheckRunReport(doc, /*expect_exploration=*/reports[i].engine == "symple" ||
                            reports[i].engine == "symple_forked");
  }

  // --- validate the Chrome trace ------------------------------------------------
  {
    obs::JsonValue doc;
    std::string error;
    Require(obs::ParseJson(tracer.ToChromeTraceJson(), &doc, &error),
            "chrome trace parses: " + error);
    const obs::JsonValue* events = doc.Find("traceEvents");
    Require(events != nullptr && events->is_array() && !events->array.empty(),
            "trace has events");
    if (events != nullptr) {
      size_t map_spans = 0;
      size_t reduce_spans = 0;
      for (const obs::JsonValue& e : events->array) {
        const obs::JsonValue* name = e.Find("name");
        if (name == nullptr) {
          continue;
        }
        map_spans += name->string_value == "map_task";
        reduce_spans += name->string_value == "reduce_task";
      }
      // sequential(1) + mapreduce(6) + symple(6) + forked(2 workers) +
      // force-degraded symple(6) map spans.
      Require(map_spans == 21, "trace records one span per map task");
      Require(reduce_spans > 0, "trace records reduce task spans");
    }
  }

  // --- validate the bench emitter JSON ------------------------------------------
  {
    obs::JsonValue doc;
    std::string error;
    Require(obs::ParseJson(bench::BenchReport::ToJson(), &doc, &error),
            "bench report parses: " + error);
    const obs::JsonValue* schema = doc.Find("schema");
    Require(schema != nullptr && schema->string_value == "symple.bench/1",
            "bench schema tag");
    RequireNumberKey(doc, "scale");
    const obs::JsonValue* runs = doc.Find("runs");
    Require(runs != nullptr && runs->is_array() && runs->array.size() == 5,
            "bench report has all five runs");
    if (runs != nullptr) {
      for (const obs::JsonValue& run : runs->array) {
        RequireKey(run, "query");
        RequireKey(run, "engine");
        RequireKey(run, "config");
        const obs::JsonValue* stats = RequireKey(run, "stats");
        if (stats != nullptr) {
          RequireNumberKey(*stats, "total_wall_ms");
          RequireNumberKey(*stats, "shuffle_bytes");
          RequireNumberKey(*stats, "reduce_partitions");
          RequireNumberKey(*stats, "partition_skew");
          RequireNumberKey(*stats, "arena_bytes");
          RequireNumberKey(*stats, "rehashes");
          RequireNumberKey(*stats, "avg_probe_len");
          RequireNumberKey(*stats, "spill_runs");
          RequireNumberKey(*stats, "spill_bytes");
          RequireNumberKey(*stats, "spill_merge_ms");
          RequireNumberKey(*stats, "peak_tracked_bytes");
          CheckExploration(RequireKey(*stats, "exploration"));
        }
      }
    }
  }

  bench::BenchReport::Write();

  if (g_failures > 0) {
    std::fprintf(stderr, "bench_smoke: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("bench_smoke: all observability schema checks passed\n");
  return 0;
}
