// Bounded stress tests: larger inputs, many segments, and restart-heavy
// configurations, still asserting exact equivalence.
#include <gtest/gtest.h>

#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "tree_compose.h"
#include "workloads/bing_gen.h"
#include "workloads/github_gen.h"
#include "workloads/webshop_gen.h"

namespace symple {
namespace {

TEST(Stress, LargeGithubRun) {
  GithubGenParams p;
  p.num_records = 300000;
  p.num_segments = 24;
  p.num_repos = 5000;
  p.filler_bytes = 32;
  const Dataset ds = GenerateGithubLog(p);
  const auto seq = RunSequential<G3PullWindowOps>(ds);
  const auto sym = RunSymple<G3PullWindowOps>(ds);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.parsed_records, 300000u);
}

TEST(Stress, TwoHundredSegments) {
  BingGenParams p;
  p.num_records = 60000;
  p.num_segments = 200;  // a key's history fragments across 200 chunks
  p.num_users = 30;      // few users: long per-user histories
  const Dataset ds = GenerateBingLog(p);
  const auto seq = RunSequential<B3UserSessions>(ds);
  const auto sym = RunSymple<B3UserSessions>(ds);
  EXPECT_TRUE(sym.outputs == seq.outputs);

  const auto b1_seq = RunSequential<B1GlobalOutages>(ds);
  const auto b1_sym = RunSymple<B1GlobalOutages>(ds);
  EXPECT_TRUE(b1_sym.outputs == b1_seq.outputs);
}

TEST(Stress, RestartHeavyConfiguration) {
  WebshopGenParams p;
  p.num_records = 80000;
  p.num_segments = 12;
  p.num_users = 500;
  const Dataset ds = GenerateWebshopLog(p);
  EngineOptions options;
  options.aggregator.max_live_paths = 1;  // restart on any ambiguity
  const auto seq = RunSequential<FunnelQuery>(ds);
  const auto sym = RunSymple<FunnelQuery>(ds, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_GT(sym.stats.exploration.summary_restarts, 1000u);
}

TEST(Stress, TreeComposeAtScale) {
  BingGenParams p;
  p.num_records = 60000;
  p.num_segments = 64;
  p.num_users = 20;
  ExpectTreeComposeMatchesSequential<B3UserSessions>(GenerateBingLog(p));
}

}  // namespace
}  // namespace symple
