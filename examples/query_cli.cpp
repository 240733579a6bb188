// Command-line runner for every evaluation query — the "download and poke at
// it" entry point. Generates the query's dataset at a chosen scale, runs the
// chosen engines, prints results summaries and engine statistics.
//
//   $ ./query_cli                 # list queries
//   $ ./query_cli G3              # run G3 on all three engines
//   $ ./query_cli B1 --records 500000 --segments 32
//   $ ./query_cli R4 --engine symple
//   $ ./query_cli G1 --save /tmp/github_ds       # generate + write to disk
//   $ ./query_cli G1 --load /tmp/github_ds       # run from files on disk
//   $ ./query_cli G3 --trace-out=/tmp/g3.trace.json   # chrome://tracing / Perfetto
//   $ ./query_cli G3 --stats-json=/tmp/g3.json        # machine-readable RunReports
//   $ ./query_cli G1 --engine forked                  # forked-process engines
//   $ ./query_cli G1 --engine forked --fault crash:worker=1:frame=100
//                                                     # fault-injected recovery demo
//   $ ./query_cli G3 --explain                        # per-run bottleneck report
//   $ ./query_cli G1 --memory-budget 2m --spill-dir /tmp/spill
//                                                     # budgeted run, spill to disk
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/all_queries.h"
#include "runtime/dataset_io.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "workloads/bing_gen.h"
#include "workloads/github_gen.h"
#include "workloads/gps_gen.h"
#include "workloads/redshift_gen.h"
#include "workloads/twitter_gen.h"
#include "workloads/webshop_gen.h"

namespace {

struct Options {
  std::string query;
  // sequential | mapreduce | symple | all | forked | symple-forked |
  // mapreduce-forked ("forked" runs sequential + both forked engines)
  std::string engine = "all";
  size_t records = 120000;
  size_t segments = 12;
  std::string save_dir;
  std::string load_dir;
  std::string trace_out;   // Chrome trace_event JSON
  std::string stats_json;  // RunReport set JSON
  bool explain = false;    // human-readable bottleneck report per engine
  // Forked-engine fault-tolerance knobs (EngineOptions defaults when < 0).
  int worker_timeout_ms = -1;
  int worker_retries = -1;
  int worker_backoff_ms = -1;
  // Symbolic→concrete degradation knobs (docs/degradation.md); 0 = unlimited.
  size_t path_budget = 0;
  size_t summary_bytes_budget = 0;
  bool force_degrade = false;
  // Shuffle knobs (docs/shuffle.md). partitions 0 = auto (one per reduce slot).
  size_t reduce_partitions = 0;
  // Expected groups per map segment (docs/group_map.md); 0 = auto.
  size_t group_capacity_hint = 0;
  // Records per map morsel (docs/scheduling.md); 0 = auto.
  size_t morsel_records = 0;
  // Memory-budgeted execution (docs/spill.md). 0 = untracked, never spill.
  uint64_t memory_budget_bytes = 0;
  std::string spill_dir;  // empty = TMPDIR or /tmp
};

void PrintStats(const char* label, const symple::EngineStats& stats, bool ok) {
  std::printf("%-11s wall %7.1f ms | map cpu %7.1f ms | shuffle %9.2f KB | %s\n",
              label, stats.total_wall_ms, stats.map_cpu_ms,
              static_cast<double>(stats.shuffle_bytes) / 1e3,
              ok ? "matches sequential" : "(reference)");
}

void PrintWorkerFaults(const symple::EngineStats& stats) {
  if (stats.worker_retries + stats.worker_timeouts + stats.worker_crashes +
          stats.fallback_segments ==
      0) {
    return;
  }
  std::printf("  faults:   %llu retries, %llu timeouts, %llu crashes, "
              "%llu segments ran in-process\n",
              static_cast<unsigned long long>(stats.worker_retries),
              static_cast<unsigned long long>(stats.worker_timeouts),
              static_cast<unsigned long long>(stats.worker_crashes),
              static_cast<unsigned long long>(stats.fallback_segments));
}

void PrintDegrades(const symple::EngineStats& stats) {
  if (stats.degraded_segments + stats.wire_corrupt_frames == 0) {
    return;
  }
  std::printf("  degrades: %llu segments replayed concretely (%llu records), "
              "%llu corrupt frames\n",
              static_cast<unsigned long long>(stats.degraded_segments),
              static_cast<unsigned long long>(stats.replayed_records),
              static_cast<unsigned long long>(stats.wire_corrupt_frames));
  for (size_t i = 0; i < symple::kDegradeReasonCount; ++i) {
    if (stats.degrade_reasons[i] > 0) {
      std::printf("            %s: %llu\n",
                  symple::DegradeReasonName(static_cast<symple::DegradeReason>(i)),
                  static_cast<unsigned long long>(stats.degrade_reasons[i]));
    }
  }
}

void PrintSpill(const symple::EngineStats& stats) {
  if (stats.spill_runs == 0) {
    return;
  }
  std::printf("  spill:    %llu runs, %.2f MB on disk, merge %.1f ms, "
              "peak tracked %.2f MB\n",
              static_cast<unsigned long long>(stats.spill_runs),
              static_cast<double>(stats.spill_bytes) / 1e6,
              stats.spill_merge_ms,
              static_cast<double>(stats.peak_tracked_bytes) / 1e6);
}

// Parses "256m", "4g", "100000" etc. into bytes; k/m/g suffixes are binary
// (KiB/MiB/GiB). Returns false on an unparseable value.
bool ParseByteSize(const std::string& value, uint64_t* out) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str()) {
    return false;
  }
  uint64_t mult = 1;
  if (*end != '\0') {
    switch (*end | 0x20) {  // lowercase
      case 'k': mult = 1ull << 10; break;
      case 'm': mult = 1ull << 20; break;
      case 'g': mult = 1ull << 30; break;
      default: return false;
    }
    if (end[1] != '\0' && (end[1] | 0x20) != 'b') {
      return false;
    }
    if (end[1] != '\0' && end[2] != '\0') {
      return false;
    }
  }
  *out = static_cast<uint64_t>(n) * mult;
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == content.size() && closed;
}

template <typename Query>
int RunQuery(const Options& options, symple::Dataset data) {
  using namespace symple;
  if (!options.load_dir.empty()) {
    std::printf("loading dataset from %s\n", options.load_dir.c_str());
    data = LoadDataset(options.load_dir);
  }
  if (!options.save_dir.empty()) {
    SaveDataset(data, options.save_dir);
    std::printf("dataset written to %s\n", options.save_dir.c_str());
  }
  std::printf("query %s on %.1f MB (%llu records, %zu segments)\n", Query::kName,
              static_cast<double>(data.TotalBytes()) / 1e6,
              static_cast<unsigned long long>(data.TotalRecords()),
              data.segment_count());

  // One tracer shared by every engine run: each engine gets its own Chrome
  // trace "process" lane, so the runs appear side by side in Perfetto.
  // --explain and --stats-json also attach the tracer: the timeline analyzer
  // (critical path, stragglers) is built from the span ring.
  const bool observing = !options.trace_out.empty() ||
                         !options.stats_json.empty() || options.explain;
  obs::Tracer tracer;
  std::vector<obs::RunReport> reports;

  auto run_engine = [&](const char* name, uint32_t pid, auto run_fn) {
    EngineOptions engine_options;
    if (options.worker_timeout_ms >= 0) {
      engine_options.worker_timeout_ms = options.worker_timeout_ms;
    }
    if (options.worker_retries >= 0) {
      engine_options.worker_retry_limit = options.worker_retries;
    }
    if (options.worker_backoff_ms >= 0) {
      engine_options.worker_retry_backoff_ms = options.worker_backoff_ms;
    }
    engine_options.budgets.max_paths_per_segment = options.path_budget;
    engine_options.budgets.max_summary_bytes_per_segment =
        options.summary_bytes_budget;
    engine_options.budgets.force_degrade = options.force_degrade;
    engine_options.reduce_partitions = options.reduce_partitions;
    engine_options.group_capacity_hint = options.group_capacity_hint;
    engine_options.morsel_records = options.morsel_records;
    engine_options.memory_budget_bytes = options.memory_budget_bytes;
    engine_options.spill_dir = options.spill_dir;
    obs::RunObserver observer(name, observing ? &tracer : nullptr, pid);
    if (observing) {
      engine_options.observer = &observer;
    }
    auto result = run_fn(engine_options);
    if (observing) {
      reports.push_back(
          MakeRunReport(Query::kName, name, engine_options, result.stats, &observer));
      if (options.explain) {
        std::printf("%s", obs::FormatExplainText(reports.back()).c_str());
      }
    }
    return result;
  };

  const auto seq = run_engine("sequential", 1, [&](const EngineOptions& opts) {
    return RunSequential<Query>(data, opts);
  });
  PrintStats("sequential", seq.stats, false);
  if (options.engine == "all" || options.engine == "mapreduce") {
    const auto mr = run_engine("mapreduce", 2, [&](const EngineOptions& opts) {
      return RunBaselineMapReduce<Query>(data, opts);
    });
    PrintStats("mapreduce", mr.stats, mr.outputs == seq.outputs);
    PrintSpill(mr.stats);
  }
  if (options.engine == "forked" || options.engine == "symple-forked") {
    const auto sym_forked =
        run_engine("symple-forked", 4, [&](const EngineOptions& opts) {
          return RunSympleForked<Query>(data, opts);
        });
    PrintStats("sym-forked", sym_forked.stats, sym_forked.outputs == seq.outputs);
    PrintSpill(sym_forked.stats);
    PrintWorkerFaults(sym_forked.stats);
    PrintDegrades(sym_forked.stats);
    if (sym_forked.outputs != seq.outputs) {
      std::printf("ERROR: forked SYMPLE diverged from the sequential semantics\n");
      return 1;
    }
  }
  if (options.engine == "forked" || options.engine == "mapreduce-forked") {
    const auto mr_forked =
        run_engine("mapreduce-forked", 5, [&](const EngineOptions& opts) {
          return RunBaselineForked<Query>(data, opts);
        });
    PrintStats("mr-forked", mr_forked.stats, mr_forked.outputs == seq.outputs);
    PrintSpill(mr_forked.stats);
    PrintWorkerFaults(mr_forked.stats);
    if (mr_forked.outputs != seq.outputs) {
      std::printf("ERROR: forked baseline diverged from the sequential semantics\n");
      return 1;
    }
  }
  if (options.engine == "all" || options.engine == "symple") {
    const auto sym = run_engine("symple", 3, [&](const EngineOptions& opts) {
      return RunSymple<Query>(data, opts);
    });
    PrintStats("symple", sym.stats, sym.outputs == seq.outputs);
    PrintSpill(sym.stats);
    PrintDegrades(sym.stats);
    std::printf("symbolic:   %llu groups, %llu summaries, %llu paths, "
                "%llu runs, %llu merges, %llu restarts\n",
                static_cast<unsigned long long>(sym.stats.groups),
                static_cast<unsigned long long>(sym.stats.summaries),
                static_cast<unsigned long long>(sym.stats.summary_paths),
                static_cast<unsigned long long>(sym.stats.exploration.runs),
                static_cast<unsigned long long>(sym.stats.exploration.paths_merged),
                static_cast<unsigned long long>(sym.stats.exploration.summary_restarts));
    if (sym.outputs != seq.outputs) {
      std::printf("ERROR: SYMPLE diverged from the sequential semantics\n");
      return 1;
    }
  }

  if (!options.trace_out.empty()) {
    if (tracer.WriteChromeTrace(options.trace_out)) {
      std::printf("trace written to %s (open in chrome://tracing or "
                  "https://ui.perfetto.dev)\n",
                  options.trace_out.c_str());
    } else {
      std::printf("ERROR: failed to write trace to %s\n", options.trace_out.c_str());
      return 1;
    }
  }
  if (!options.stats_json.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("schema", "symple.run_report_set/1");
    w.KV("query", Query::kName);
    w.Key("reports").BeginArray();
    for (const obs::RunReport& report : reports) {
      report.AppendJson(w);
    }
    w.EndArray();
    w.EndObject();
    if (WriteFile(options.stats_json, w.TakeString())) {
      std::printf("run reports written to %s\n", options.stats_json.c_str());
    } else {
      std::printf("ERROR: failed to write stats to %s\n", options.stats_json.c_str());
      return 1;
    }
  }
  std::printf("\n");
  return 0;
}

// Accepts both "--flag value" and "--flag=value"; returns the value through
// `out` and advances `i` past a space-separated value.
bool FlagValue(int argc, char** argv, int& i, const char* flag, std::string* out) {
  const size_t flag_len = std::strlen(flag);
  if (std::strncmp(argv[i], flag, flag_len) != 0) {
    return false;
  }
  if (argv[i][flag_len] == '=') {
    *out = argv[i] + flag_len + 1;
    return true;
  }
  if (argv[i][flag_len] == '\0' && i + 1 < argc) {
    *out = argv[++i];
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace symple;
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argc, argv, i, "--records", &value)) {
      options.records = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--segments", &value)) {
      options.segments = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--engine", &value)) {
      options.engine = value;
    } else if (FlagValue(argc, argv, i, "--save", &value)) {
      options.save_dir = value;
    } else if (FlagValue(argc, argv, i, "--load", &value)) {
      options.load_dir = value;
    } else if (FlagValue(argc, argv, i, "--trace-out", &value)) {
      options.trace_out = value;
    } else if (FlagValue(argc, argv, i, "--stats-json", &value)) {
      options.stats_json = value;
    } else if (FlagValue(argc, argv, i, "--worker-timeout-ms", &value)) {
      options.worker_timeout_ms = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, i, "--worker-retries", &value)) {
      options.worker_retries = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, i, "--worker-backoff-ms", &value)) {
      options.worker_backoff_ms = std::atoi(value.c_str());
    } else if (FlagValue(argc, argv, i, "--path-budget", &value)) {
      options.path_budget = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--summary-bytes-budget", &value)) {
      options.summary_bytes_budget = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--reduce-partitions", &value)) {
      options.reduce_partitions = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--group-capacity-hint", &value)) {
      options.group_capacity_hint = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--morsel-records", &value)) {
      options.morsel_records = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (FlagValue(argc, argv, i, "--memory-budget", &value)) {
      if (!ParseByteSize(value, &options.memory_budget_bytes)) {
        std::printf("bad --memory-budget '%s' (expected e.g. 500000, 64m, 2g)\n",
                    value.c_str());
        return 1;
      }
    } else if (FlagValue(argc, argv, i, "--spill-dir", &value)) {
      options.spill_dir = value;
    } else if (std::strcmp(argv[i], "--force-degrade") == 0) {
      options.force_degrade = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      options.explain = true;
    } else if (FlagValue(argc, argv, i, "--fault", &value)) {
      // Same syntax as SYMPLE_FAULT_SPEC (see docs/process_engine.md), e.g.
      // --fault crash:worker=1:frame=100
      ::setenv("SYMPLE_FAULT_SPEC", value.c_str(), 1);
    } else {
      options.query = argv[i];
    }
  }
  if (options.engine != "all" && options.engine != "sequential" &&
      options.engine != "mapreduce" && options.engine != "symple" &&
      options.engine != "forked" && options.engine != "symple-forked" &&
      options.engine != "mapreduce-forked") {
    std::printf("unknown engine '%s' (expected sequential|mapreduce|symple|all|"
                "forked|symple-forked|mapreduce-forked)\n",
                options.engine.c_str());
    return 1;
  }
  if (options.query.empty()) {
    std::printf("usage: query_cli <query> [--records N] [--segments N] "
                "[--engine sequential|mapreduce|symple|all|forked]\n"
                "                 [--trace-out FILE] [--stats-json FILE] "
                "[--explain]\n"
                "                 [--worker-timeout-ms N] [--worker-retries N] "
                "[--worker-backoff-ms N]\n"
                "                 [--path-budget N] [--summary-bytes-budget N] "
                "[--force-degrade]\n"
                "                 [--reduce-partitions N] "
                "[--group-capacity-hint N]\n"
                "                 [--morsel-records N] "
                "[--memory-budget N[k|m|g]] [--spill-dir DIR]\n"
                "                 [--fault crash|hang|truncate|corrupt|"
                "spill-enospc|spill-short-write|spill-corrupt:"
                "worker=<n|*>:frame=<k|*>]"
                "\n\nqueries:\n");
    for (const QueryInfo& info : AllQueryInfos()) {
      std::printf("  %-4s %-9s %s\n", info.id.c_str(), info.dataset.c_str(),
                  info.description.c_str());
    }
    std::printf("  %-4s %-9s %s\n", "Max", "numbers", "global maximum (Section 3.1)");
    std::printf("  %-4s %-9s %s\n", "Fun", "webshop", "purchase funnel (Figure 1)");
    std::printf("  %-4s %-9s %s\n", "Gps", "gps", "session counting (Section 4.4)");
    return 0;
  }

  GithubGenParams gh;
  gh.num_records = options.records;
  gh.num_segments = options.segments;
  BingGenParams bing;
  bing.num_records = options.records;
  bing.num_segments = options.segments;
  TwitterGenParams tw;
  tw.num_records = options.records;
  tw.num_segments = options.segments;
  RedshiftGenParams rs;
  rs.num_records = options.records;
  rs.num_segments = options.segments;
  WebshopGenParams shop;
  shop.num_records = options.records;
  shop.num_segments = options.segments;
  GpsGenParams gps;
  gps.num_records = options.records;
  gps.num_segments = options.segments;

  const std::string& q = options.query;
  if (q == "G1") {
    return RunQuery<G1OnlyPushes>(options, GenerateGithubLog(gh));
  }
  if (q == "G2") {
    return RunQuery<G2OpsBeforeDelete>(options, GenerateGithubLog(gh));
  }
  if (q == "G3") {
    return RunQuery<G3PullWindowOps>(options, GenerateGithubLog(gh));
  }
  if (q == "G4") {
    return RunQuery<G4BranchGap>(options, GenerateGithubLog(gh));
  }
  if (q == "B1") {
    return RunQuery<B1GlobalOutages>(options, GenerateBingLog(bing));
  }
  if (q == "B2") {
    return RunQuery<B2AreaOutages>(options, GenerateBingLog(bing));
  }
  if (q == "B3") {
    return RunQuery<B3UserSessions>(options, GenerateBingLog(bing));
  }
  if (q == "T1") {
    return RunQuery<T1SpamLearning>(options, GenerateTwitterLog(tw));
  }
  if (q == "R1") {
    return RunQuery<R1Impressions>(options, GenerateRedshiftLog(rs));
  }
  if (q == "R2") {
    return RunQuery<R2SingleCountry>(options, GenerateRedshiftLog(rs));
  }
  if (q == "R3") {
    return RunQuery<R3AdGaps>(options, GenerateRedshiftLog(rs));
  }
  if (q == "R4") {
    return RunQuery<R4CampaignRuns>(options, GenerateRedshiftLog(rs));
  }
  if (q == "Fun") {
    return RunQuery<FunnelQuery>(options, GenerateWebshopLog(shop));
  }
  if (q == "Gps") {
    return RunQuery<GpsSessionQuery>(options, GenerateGpsLog(gps));
  }
  std::printf("unknown query '%s' (run without arguments for the list)\n", q.c_str());
  return 1;
}
