// twitter-t1: T1 over twitter, 20000 hashtags at skew 3.0, even layout.
// About one record per (morsel, group), so group-table inserts, aggregator
// construction and per-group summaries dominate, and many small packets go
// through the shuffle sort and reduce dispatch: the regime where SYMPLE loses
// to the baseline (paper Fig. 7).
#include <string>

#include "bench/e2e/harness.h"
#include "queries/twitter_queries.h"
#include "workloads/twitter_gen.h"

namespace symple::e2e {
namespace {

Dataset MakeData(uint64_t seed, double scale) {
  TwitterGenParams p;
  p.seed += seed;
  p.num_records = static_cast<size_t>(120000 * scale);
  p.num_segments = 16;
  p.num_hashtags = 20000;
  p.popularity_skew = 3.0;
  return GenerateTwitterLog(p);
}

// Each (morsel, group) pair ships at least one summary, so parsed records
// per summary bounds the records per (morsel, group) from above.
std::string Guard(const Dataset&, const EngineStats&, const EngineStats& symple) {
  const double per_pair = static_cast<double>(symple.parsed_records) /
                          static_cast<double>(std::max<uint64_t>(1, symple.summaries));
  if (per_pair > 2) {
    return std::to_string(per_pair) + " records per (morsel, group) (> 2)";
  }
  return "";
}

}  // namespace

WorkloadResult RunTwitterT1(const RunConfig& cfg, uint64_t parent_span) {
  static const WorkloadSpec spec{"twitter-t1", 0, &MakeData, &Guard};
  return RunWorkload<T1SpamLearning>(cfg, spec, parent_span);
}

}  // namespace symple::e2e
