// bing-b3-spill: B3 over bing, 20000 users, with a 4 MiB memory budget on
// every timed engine. The shuffle and reduce layers write to disk beside
// reading: budget flushes, checksummed sorted runs and the k-way merge, so a
// gain for the in-memory sort that costs the spill path shows up here.
#include <string>

#include "bench/e2e/harness.h"
#include "queries/bing_queries.h"
#include "workloads/bing_gen.h"

namespace symple::e2e {
namespace {

Dataset MakeData(uint64_t seed, double scale) {
  BingGenParams p;
  p.seed += seed;
  p.num_records = static_cast<size_t>(200000 * scale);
  p.num_segments = 16;
  p.num_users = 20000;
  return GenerateBingLog(p);
}

}  // namespace

WorkloadResult RunBingB3Spill(const RunConfig& cfg, uint64_t parent_span) {
  // The harness's spill guard is this workload's only guard.
  static const WorkloadSpec spec{"bing-b3-spill", uint64_t{4} << 20, &MakeData, nullptr};
  return RunWorkload<B3UserSessions>(cfg, spec, parent_span);
}

}  // namespace symple::e2e
