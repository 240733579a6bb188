// Shared types of the symple_e2e benchmark: run configuration, measured
// metrics, bench-side trace spans and the workload registry.
//
// The benchmark drives only the public surface of the system: the five Run*
// engines, MakeRunReport, the obs tracer/observer, and the layer entry points
// (Query::Parse/Update/SerializeEvent, FlatGroupMap, SymbolicAggregator,
// Summary, ComposeAll). It calls nothing in symple::internal, so engine
// refactors that keep those names need no benchmark edit.
#ifndef SYMPLE_BENCH_E2E_E2E_H_
#define SYMPLE_BENCH_E2E_E2E_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace symple::e2e {

struct RunConfig {
  uint64_t seed = 1;
  // Length of the timed loop; rounds continue until it has elapsed.
  double seconds = 20;
  // Input size factor (1 for measurement, 1/10 for --smoke).
  double scale = 1.0;
  // Setup repetitions: setup_s is their median.
  int setup_reps = 3;
  // Map slots, reduce slots and forked workers: min(4, nproc).
  size_t slots = 4;
  std::string spill_dir;
  // Non-null turns on the traced pass, the probe pass and bench spans.
  obs::Tracer* tracer = nullptr;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // (Q3 - Q1) / median of the samples behind `value`; 0 for a single sample.
  double spread = 0;
  size_t samples = 1;
};

struct WorkloadResult {
  std::string name;
  size_t rounds = 0;
  // Engine runs plus probe passes, and those that threw or disagreed with the
  // oracle.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  // Set when a workload guard tripped: the input no longer exercises what the
  // workload was chosen for, so its numbers are not comparable.
  std::string guard_error;

  void Add(std::string metric_name, double value, std::string unit,
           const std::vector<double>& samples = {});
  void Fail(std::string message);
  double error_rate() const {
    return attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
// (Q3 - Q1) / median, the relative spread `Metric::spread` reports.
double RelativeSpread(const std::vector<double>& v);

// A bench-side span recorded on the "symple_e2e" trace lane. Each carries
// its own id and its parent's id as TraceSpan args, so the nesting
// benchmark -> workload -> phase -> engine_run | probe.segment -> probe.<layer>
// survives across the engines' own pid lanes, and SelfTimeUs can fold it.
class Span {
 public:
  Span(obs::Tracer* tracer, std::string name, uint64_t parent);
  uint64_t id() const { return id_; }
  void AddArg(std::string key, uint64_t value) { span_.AddArg(std::move(key), value); }

 private:
  uint64_t id_;
  obs::ScopedSpan span_;
};

inline constexpr uint32_t kBenchPid = 1;

// Self time (duration minus the time child spans cover), in microseconds,
// summed per span name over every bench span below `root`.
std::vector<std::pair<std::string, double>> SelfTimeUs(const obs::Tracer& tracer,
                                                       uint64_t root);

// Allocates a fresh trace pid lane for one traced engine run.
uint32_t NextTracePid();

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunConfig& cfg, uint64_t parent_span);
};

WorkloadResult RunGithubG3Skew(const RunConfig& cfg, uint64_t parent_span);
WorkloadResult RunRedshiftR4c(const RunConfig& cfg, uint64_t parent_span);
WorkloadResult RunTwitterT1(const RunConfig& cfg, uint64_t parent_span);
WorkloadResult RunBingB3Spill(const RunConfig& cfg, uint64_t parent_span);

inline constexpr Workload kWorkloads[] = {
    {"github-g3-skew", &RunGithubG3Skew},
    {"redshift-r4c", &RunRedshiftR4c},
    {"twitter-t1", &RunTwitterT1},
    {"bing-b3-spill", &RunBingB3Spill},
};

}  // namespace symple::e2e

#endif  // SYMPLE_BENCH_E2E_E2E_H_
