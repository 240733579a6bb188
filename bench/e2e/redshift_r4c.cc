// redshift-r4c: R4 over condensed RedShift, 50 advertisers, even layout.
// Four-column records make parse cheap; symbolic feed (three live paths
// carrying a SymVector), summary serialize and compose/apply dominate while
// few packets cross the shuffle. R4 shows the worst SYMPLE(1) overhead of
// the evaluation queries (EXPERIMENTS.md).
#include <string>

#include "bench/e2e/harness.h"
#include "queries/redshift_queries.h"
#include "workloads/redshift_gen.h"

namespace symple::e2e {
namespace {

Dataset MakeData(uint64_t seed, double scale) {
  RedshiftGenParams p;
  p.seed += seed;
  p.num_records = static_cast<size_t>(800000 * scale);
  p.num_segments = 16;
  p.num_advertisers = 50;
  p.condensed = true;
  return GenerateRedshiftLog(p);
}

std::string Guard(const Dataset&, const EngineStats& oracle, const EngineStats&) {
  if (oracle.groups > 64) {
    return std::to_string(oracle.groups) + " groups (> 64)";
  }
  return "";
}

}  // namespace

WorkloadResult RunRedshiftR4c(const RunConfig& cfg, uint64_t parent_span) {
  static const WorkloadSpec spec{"redshift-r4c", 0, &MakeData, &Guard};
  return RunWorkload<R4CampaignRuns>(cfg, spec, parent_span);
}

}  // namespace symple::e2e
