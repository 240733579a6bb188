// Memory-budgeted execution benchmark: the cost of spilling (docs/spill.md).
//
// Each threaded map/shuffle/reduce engine runs the same query twice over the
// same dataset — once unbudgeted (everything stays in memory) and once under
// a budget far below the working set, so the run must cut over to sorted
// on-disk runs and merge them back. (The sequential oracle ignores the
// budget and never spills, so it has no case here.) Three numbers matter per
// engine:
//
//   wall ratio   budgeted wall / in-memory wall — the price of external
//                aggregation. Spilling trades memory for sequential disk
//                I/O plus one merge pass, so the ratio must stay bounded;
//   peak         peak_tracked_bytes of the budgeted run — the budget is a
//                promise, so the tracked high-water mark must stay under it
//                (the 3/4 spill watermark exists to absorb in-flight growth);
//   correctness  budgeted outputs must equal the in-memory outputs exactly.
//
// Modes:
//   (default)  full-size measurement; enforce the acceptance gates —
//              budgeted peak <= budget, budgeted wall <= 2.5x in-memory wall
//              (on walls over the noise floor), identical outputs, and the
//              budgeted run actually spilled
//   --smoke    tiny sizes, wall gate skipped — schema/ctest wiring check
//              (spill-happened and identical-outputs still checked: they are
//              deterministic at any size)
//
// Emits BENCH_spill.json (schema symple.bench/1) with a "memory" and a
// "budget=..." run per engine so bench_compare can diff commits; the pinned
// fixtures under bench/fixtures/ hold its verdicts on this report shape.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

using Runner =
    std::function<RunResult<G1OnlyPushes>(const Dataset&, const EngineOptions&)>;

struct EngineCase {
  const char* name;
  Runner run;
};

struct Measured {
  EngineStats stats;            // of the best-wall rep
  double wall_ms = 1e300;       // best of reps
  uint64_t worst_peak_bytes = 0;  // the budget promise must hold every rep
  std::map<int64_t, bool> outputs;
};

Measured Measure(const Runner& run, const Dataset& data,
                 const EngineOptions& options, int reps) {
  Measured m;
  for (int rep = 0; rep < reps; ++rep) {
    auto result = run(data, options);
    if (result.stats.total_wall_ms < m.wall_ms) {
      m.wall_ms = result.stats.total_wall_ms;
      m.stats = result.stats;
    }
    m.worst_peak_bytes =
        std::max(m.worst_peak_bytes, result.stats.peak_tracked_bytes);
    m.outputs = std::move(result.outputs);
  }
  return m;
}

}  // namespace
}  // namespace symple

int main(int argc, char** argv) {
  using namespace symple;
  using bench::BenchReport;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // Full size: enough distinct keys that every layer (map-side tables, the
  // shuffle) genuinely exceeds the budget; smoke reuses
  // the regression-test scale. The budget stays fixed as the dataset scales so
  // larger SYMPLE_BENCH_SCALE values spill harder, not not-at-all.
  GithubGenParams p;
  uint64_t budget_bytes;
  int reps;
  if (smoke) {
    p.num_records = 4000;
    p.num_segments = 6;
    p.num_repos = 400;
    p.filler_bytes = 16;
    budget_bytes = 16 * 1024;
    reps = 1;
  } else {
    p.num_records = bench::Scaled(120000);
    p.num_segments = 8;
    p.num_repos = 30000;
    p.filler_bytes = 64;
    budget_bytes = 1024 * 1024;
    reps = 3;
  }
  const Dataset data = GenerateGithubLog(p);

  EngineOptions memory_opts;  // unbudgeted: tracked but never spills
  EngineOptions budget_opts;
  budget_opts.memory_budget_bytes = budget_bytes;
  const std::string budget_config =
      "budget=" + std::to_string(budget_bytes / 1024) + "KiB";

  const std::vector<EngineCase> engines = {
      {"mapreduce",
       [](const Dataset& d, const EngineOptions& o) {
         return RunBaselineMapReduce<G1OnlyPushes>(d, o);
       }},
      {"symple",
       [](const Dataset& d, const EngineOptions& o) {
         return RunSymple<G1OnlyPushes>(d, o);
       }},
  };

  BenchReport::Open("spill");
  bench::PrintHeader("Spill-to-disk external aggregation vs in-memory");
  std::printf("dataset: %llu records, %zu segments, %zu repos; budget %s\n",
              static_cast<unsigned long long>(data.TotalRecords()),
              data.segments.size(), p.num_repos,
              bench::HumanBytes(budget_bytes).c_str());
  std::printf("%12s %12s %12s %8s %8s %12s %12s\n", "engine", "mem ms",
              "spill ms", "ratio", "runs", "spilled", "peak");
  bench::PrintRule(84);

  // The wall gate only binds on walls past the noise floor (smoke sizes
  // finish in single-digit ms where the ratio is all jitter).
  constexpr double kMaxSlowdown = 2.5;
  constexpr double kMinGatedWallMs = 5.0;
  bool gate_failed = false;
  for (const EngineCase& e : engines) {
    const Measured mem = Measure(e.run, data, memory_opts, reps);
    const Measured spl = Measure(e.run, data, budget_opts, reps);
    const double ratio = spl.wall_ms / std::max(mem.wall_ms, 1e-9);
    std::printf("%12s %12.2f %12.2f %7.2fx %8llu %12s %12s\n", e.name,
                mem.wall_ms, spl.wall_ms, ratio,
                static_cast<unsigned long long>(spl.stats.spill_runs),
                bench::HumanBytes(spl.stats.spill_bytes).c_str(),
                bench::HumanBytes(spl.worst_peak_bytes).c_str());

    EngineStats mem_stats = mem.stats;
    mem_stats.total_wall_ms = mem.wall_ms;
    BenchReport::AddRun("G1", e.name, "memory", mem_stats);
    EngineStats spl_stats = spl.stats;
    spl_stats.total_wall_ms = spl.wall_ms;
    BenchReport::AddRun("G1", e.name, budget_config, spl_stats);
    BenchReport::AddScalar(std::string("slowdown_") + e.name, ratio);
    BenchReport::AddScalar(std::string("peak_bytes_") + e.name,
                           static_cast<double>(spl.worst_peak_bytes));

    // Deterministic gates hold at any size.
    if (spl.outputs != mem.outputs) {
      std::fprintf(stderr, "GATE FAIL: %s budgeted outputs differ\n", e.name);
      gate_failed = true;
    }
    if (spl.stats.spill_runs == 0) {
      std::fprintf(stderr,
                   "GATE FAIL: %s never spilled under a %s budget "
                   "(bench is not measuring external aggregation)\n",
                   e.name, bench::HumanBytes(budget_bytes).c_str());
      gate_failed = true;
    }
    // Measurement gates bind only on full-size runs. The peak gate binds the
    // worst rep: the budget is a promise for every run, not the luckiest one.
    if (!smoke && spl.worst_peak_bytes > budget_bytes) {
      std::fprintf(stderr, "GATE FAIL: %s peak_tracked_bytes %s over budget %s\n",
                   e.name, bench::HumanBytes(spl.worst_peak_bytes).c_str(),
                   bench::HumanBytes(budget_bytes).c_str());
      gate_failed = true;
    }
    if (!smoke && mem.wall_ms >= kMinGatedWallMs && ratio > kMaxSlowdown) {
      std::fprintf(stderr, "GATE FAIL: %s spilling %.2fx > %.2fx in-memory wall\n",
                   e.name, ratio, kMaxSlowdown);
      gate_failed = true;
    }
  }
  bench::PrintRule(84);

  BenchReport::Write();
  if (gate_failed) {
    return 1;
  }
  std::printf("bench_spill: %s\n",
              smoke ? "smoke wiring ok (wall/peak gates skipped)"
                    : "spill gates passed");
  return 0;
}
