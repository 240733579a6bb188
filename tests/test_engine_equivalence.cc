// The headline correctness property of the whole system (paper Section 2.3:
// symbolic execution must be sound and precise — "leaving no room for under-
// or over-approximations"): for every query, on every dataset, for any
// chunking of the input, the SYMPLE engine must produce byte-identical output
// to both the sequential execution and the baseline MapReduce.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "tree_compose.h"
#include "workloads/bing_gen.h"
#include "workloads/github_gen.h"
#include "workloads/gps_gen.h"
#include "workloads/redshift_gen.h"
#include "workloads/twitter_gen.h"
#include "workloads/webshop_gen.h"

namespace symple {
namespace {

// Runs all three engines on `data` and requires identical outputs.
template <typename Query>
void ExpectAllEnginesAgree(const Dataset& data, const EngineOptions& options = {}) {
  const RunResult<Query> seq = RunSequential<Query>(data);
  const RunResult<Query> mr = RunBaselineMapReduce<Query>(data, options);
  const RunResult<Query> sym = RunSymple<Query>(data, options);

  EXPECT_EQ(seq.outputs.size(), mr.outputs.size()) << Query::kName;
  EXPECT_EQ(seq.outputs.size(), sym.outputs.size()) << Query::kName;
  EXPECT_TRUE(seq.outputs == mr.outputs) << Query::kName << ": baseline diverged";
  EXPECT_TRUE(seq.outputs == sym.outputs) << Query::kName << ": SYMPLE diverged";
}

// Small datasets so the full matrix stays fast; segment counts are varied to
// exercise chunk boundaries falling at awkward places.
Dataset SmallGithub(size_t segments) {
  GithubGenParams p;
  p.num_records = 6000;
  p.num_segments = segments;
  p.num_repos = 120;
  p.filler_bytes = 8;
  return GenerateGithubLog(p);
}

Dataset SmallRedshift(size_t segments, bool condensed) {
  RedshiftGenParams p;
  p.num_records = 6000;
  p.num_segments = segments;
  p.num_advertisers = 80;
  p.condensed = condensed;
  p.filler_columns = 2;
  return GenerateRedshiftLog(p);
}

Dataset SmallBing(size_t segments) {
  BingGenParams p;
  p.num_records = 6000;
  p.num_segments = segments;
  p.num_users = 150;
  p.filler_bytes = 8;
  return GenerateBingLog(p);
}

Dataset SmallTwitter(size_t segments) {
  TwitterGenParams p;
  p.num_records = 6000;
  p.num_segments = segments;
  p.num_hashtags = 100;
  p.filler_bytes = 8;
  return GenerateTwitterLog(p);
}

Dataset SmallGps(size_t segments) {
  GpsGenParams p;
  p.num_records = 4000;
  p.num_segments = segments;
  p.num_users = 60;
  return GenerateGpsLog(p);
}

Dataset SmallWebshop(size_t segments) {
  WebshopGenParams p;
  p.num_records = 6000;
  p.num_segments = segments;
  p.num_users = 100;
  p.filler_bytes = 8;
  return GenerateWebshopLog(p);
}

class EngineEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineEquivalence, GithubQueries) {
  const Dataset data = SmallGithub(GetParam());
  ExpectAllEnginesAgree<G1OnlyPushes>(data);
  ExpectAllEnginesAgree<G2OpsBeforeDelete>(data);
  ExpectAllEnginesAgree<G3PullWindowOps>(data);
  ExpectAllEnginesAgree<G4BranchGap>(data);
}

TEST_P(EngineEquivalence, RedshiftQueries) {
  const Dataset data = SmallRedshift(GetParam(), /*condensed=*/false);
  ExpectAllEnginesAgree<R1Impressions>(data);
  ExpectAllEnginesAgree<R2SingleCountry>(data);
  ExpectAllEnginesAgree<R3AdGaps>(data);
  ExpectAllEnginesAgree<R4CampaignRuns>(data);
}

TEST_P(EngineEquivalence, RedshiftCondensedQueries) {
  const Dataset data = SmallRedshift(GetParam(), /*condensed=*/true);
  ExpectAllEnginesAgree<R1Impressions>(data);
  ExpectAllEnginesAgree<R2SingleCountry>(data);
  ExpectAllEnginesAgree<R3AdGaps>(data);
  ExpectAllEnginesAgree<R4CampaignRuns>(data);
}

TEST_P(EngineEquivalence, BingQueries) {
  const Dataset data = SmallBing(GetParam());
  ExpectAllEnginesAgree<B1GlobalOutages>(data);
  ExpectAllEnginesAgree<B2AreaOutages>(data);
  ExpectAllEnginesAgree<B3UserSessions>(data);
}

TEST_P(EngineEquivalence, TwitterQuery) {
  ExpectAllEnginesAgree<T1SpamLearning>(SmallTwitter(GetParam()));
}

TEST_P(EngineEquivalence, GpsQuery) {
  ExpectAllEnginesAgree<GpsSessionQuery>(SmallGps(GetParam()));
}

TEST_P(EngineEquivalence, FunnelQuery) {
  ExpectAllEnginesAgree<FunnelQuery>(SmallWebshop(GetParam()));
}

TEST_P(EngineEquivalence, MaxQuery) {
  // Feed the Max UDA with random integer lines.
  SplitMix64 rng(7);
  std::vector<std::vector<std::string>> chunks(GetParam());
  for (auto& chunk : chunks) {
    for (int i = 0; i < 500; ++i) {
      chunk.push_back(
          std::to_string(static_cast<int64_t>(rng.Below(1000000)) - 500000));
    }
  }
  ExpectAllEnginesAgree<MaxQuery>(DatasetFromLines(chunks));
}

INSTANTIATE_TEST_SUITE_P(SegmentCounts, EngineEquivalence,
                         ::testing::Values<size_t>(1, 2, 3, 5, 8, 13));

// A tighter live-path bound forces frequent summary restarts; results must be
// unaffected (Section 5.2's fallback is semantics-preserving).
TEST(EngineEquivalenceRestart, TightLivePathBound) {
  EngineOptions options;
  options.aggregator.max_live_paths = 2;
  ExpectAllEnginesAgree<T1SpamLearning>(SmallTwitter(7), options);
  ExpectAllEnginesAgree<FunnelQuery>(SmallWebshop(7), options);
  ExpectAllEnginesAgree<B3UserSessions>(SmallBing(7), options);
}

// Tree composition of each key's map-side summaries (Section 3.6: function
// composition is associative) must produce the sequential results the
// reducer's in-order fold does.
TEST(EngineEquivalenceTreeReduce, TreeComposeMatchesFold) {
  ExpectTreeComposeMatchesSequential<G3PullWindowOps>(SmallGithub(8));
  ExpectTreeComposeMatchesSequential<B1GlobalOutages>(SmallBing(8));
  ExpectTreeComposeMatchesSequential<R4CampaignRuns>(SmallRedshift(8, true));
  ExpectTreeComposeMatchesSequential<T1SpamLearning>(SmallTwitter(8));
  ExpectTreeComposeMatchesSequential<GpsSessionQuery>(SmallGps(8));
}

// Tree composition combined with forced restarts (many summaries per chunk).
TEST(EngineEquivalenceTreeReduce, TreeComposeWithRestarts) {
  EngineOptions restarts;
  restarts.aggregator.max_live_paths = 2;
  ExpectTreeComposeMatchesSequential<B3UserSessions>(SmallBing(6), restarts);
  ExpectTreeComposeMatchesSequential<FunnelQuery>(SmallWebshop(6), restarts);
}

// Merging off must not change results, only path counts (ablation soundness).
TEST(EngineEquivalenceNoMerge, MergingDisabled) {
  EngineOptions options;
  options.aggregator.enable_merging = false;
  ExpectAllEnginesAgree<G3PullWindowOps>(SmallGithub(5), options);
  ExpectAllEnginesAgree<T1SpamLearning>(SmallTwitter(5), options);
}

// Observability must be a pure observer: running with a tracer + run observer
// attached yields byte-identical query results to running without, and the
// observer sees every task exactly once.
TEST(EngineEquivalenceObservability, TracingOnMatchesTracingOff) {
  const Dataset data = SmallGithub(7);

  const RunResult<G3PullWindowOps> plain_seq = RunSequential<G3PullWindowOps>(data);
  const RunResult<G3PullWindowOps> plain_mr = RunBaselineMapReduce<G3PullWindowOps>(data);
  const RunResult<G3PullWindowOps> plain_sym = RunSymple<G3PullWindowOps>(data);

  obs::Tracer tracer;
  obs::RunObserver seq_obs("sequential", &tracer, 1);
  obs::RunObserver mr_obs("mapreduce", &tracer, 2);
  obs::RunObserver sym_obs("symple", &tracer, 3);
  EngineOptions seq_options;
  seq_options.observer = &seq_obs;
  EngineOptions mr_options;
  mr_options.observer = &mr_obs;
  EngineOptions sym_options;
  sym_options.observer = &sym_obs;

  const RunResult<G3PullWindowOps> traced_seq =
      RunSequential<G3PullWindowOps>(data, seq_options);
  const RunResult<G3PullWindowOps> traced_mr =
      RunBaselineMapReduce<G3PullWindowOps>(data, mr_options);
  const RunResult<G3PullWindowOps> traced_sym =
      RunSymple<G3PullWindowOps>(data, sym_options);

  EXPECT_TRUE(traced_seq.outputs == plain_seq.outputs)
      << "sequential diverged under tracing";
  EXPECT_TRUE(traced_mr.outputs == plain_mr.outputs)
      << "baseline diverged under tracing";
  EXPECT_TRUE(traced_sym.outputs == plain_sym.outputs)
      << "SYMPLE diverged under tracing";
  // And the untraced/traced SYMPLE runs both still match sequential.
  EXPECT_TRUE(traced_sym.outputs == traced_seq.outputs);

  // The traced run observed every map task: 1 sequential scan + one task per
  // segment for each of the two parallel engines.
  obs::RunReport sym_report;
  sym_obs.FillReport(&sym_report);
  EXPECT_EQ(sym_report.map_task_count, data.segment_count());
  EXPECT_GT(sym_report.reduce_task_count, 0u);
  size_t map_spans = 0;
  for (const obs::TraceSpan& span : tracer.Spans()) {
    map_spans += span.name == "map_task";
  }
  EXPECT_EQ(map_spans, 1 + 2 * data.segment_count());
}

}  // namespace
}  // namespace symple
