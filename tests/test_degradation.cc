// End-to-end symbolic→concrete degradation tests: path-exploding,
// overflowing, and budget-capped UDAs must complete with results
// byte-identical to the sequential engine, with the degrades accounted per
// reason in EngineStats and the RunReport — in the threaded engine and in the
// forked engine. A forked worker whose frames fail checksum validation is
// re-executed, not degraded.
#include "runtime/process_engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/text.h"
#include "core/symple.h"
#include "obs/json.h"
#include "queries/text_row.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"

namespace symple {
namespace {

// Sets SYMPLE_FAULT_SPEC for one test body; restores on scope exit.
class FaultGuard {
 public:
  explicit FaultGuard(const char* spec) { ::setenv("SYMPLE_FAULT_SPEC", spec, 1); }
  ~FaultGuard() { ::unsetenv("SYMPLE_FAULT_SPEC"); }
};

// --- ledger: a well-behaved query (degrades only when forced) ----------------

struct LedgerState {
  SymInt total = 0;
  SymInt deposits = 0;
  auto list_fields() { return std::tie(total, deposits); }
};

struct LedgerEvent {
  int64_t amount = 0;
};

std::optional<std::pair<int64_t, LedgerEvent>> LedgerParse(std::string_view line) {
  FieldCursor cur(line);
  const auto account = cur.Next();
  const auto amount = cur.Next();
  if (!account || !amount) {
    return std::nullopt;
  }
  const auto account_id = ParseInt64(*account);
  const auto amount_v = ParseInt64(*amount);
  if (!account_id || !amount_v) {
    return std::nullopt;
  }
  return std::make_pair(*account_id, LedgerEvent{*amount_v});
}

void LedgerUpdate(LedgerState& s, const LedgerEvent& e) {
  s.total += e.amount;
  if (e.amount > 0) {
    s.deposits += 1;
  }
}

std::pair<int64_t, int64_t> LedgerResult(const LedgerState& s, const int64_t&) {
  return {s.total.Value(), s.deposits.Value()};
}

void LedgerSerialize(const LedgerEvent& e, BinaryWriter& w) {
  WriteTextRow(w, {e.amount});
}

LedgerEvent LedgerDeserialize(BinaryReader& r) {
  return LedgerEvent{ReadTextRow<1>(r)[0]};
}

using LedgerQuery = LambdaQuery<"ledger", &LedgerParse, &LedgerUpdate, &LedgerResult,
                                &LedgerSerialize, &LedgerDeserialize>;

Dataset LedgerData(size_t segments, size_t lines_per_segment) {
  std::vector<std::vector<std::string>> chunks(segments);
  for (size_t s = 0; s < segments; ++s) {
    for (size_t i = 0; i < lines_per_segment; ++i) {
      const int64_t key = static_cast<int64_t>((s + i) % 3 + 1);
      const int64_t amount = static_cast<int64_t>(i % 7) - 2;
      chunks[s].push_back(std::to_string(key) + "\t" + std::to_string(amount));
    }
  }
  return DatasetFromLines(chunks);
}

std::optional<std::pair<int64_t, LedgerEvent>> KeyOnlyParse(std::string_view line) {
  FieldCursor cur(line);
  const auto key = cur.Next();
  if (!key) {
    return std::nullopt;
  }
  const auto key_id = ParseInt64(*key);
  if (!key_id) {
    return std::nullopt;
  }
  return std::make_pair(*key_id, LedgerEvent{});
}

// --- loop: a state-dependent loop that symbolic execution cannot finish ------

void LoopUpdate(LedgerState& s, const LedgerEvent&) {
  // Terminates in at most 64 steps from any concrete state, but under an
  // unknown initial value the "keep looping" branch never becomes infeasible:
  // exploration hits the decision/path bound (the paper's declared
  // limitation for state-dependent loops).
  while (s.total < 64) {
    s.total += 1;
  }
}

int64_t LoopResult(const LedgerState& s, const int64_t&) { return s.total.Value(); }

using LoopQuery = LambdaQuery<"loop", &KeyOnlyParse, &LoopUpdate, &LoopResult,
                              &LedgerSerialize, &LedgerDeserialize>;

// --- triple: symbolic coefficient overflow, concretely harmless --------------

void TripleUpdate(LedgerState& s, const LedgerEvent&) {
  // Concretely 0 *= 3 forever; symbolically the affine coefficient is 3^k
  // after k records and overflows int64 near k = 40.
  s.total *= 3;
}

using TripleQuery = LambdaQuery<"triple", &KeyOnlyParse, &TripleUpdate, &LoopResult,
                                &LedgerSerialize, &LedgerDeserialize>;

// --- cap: branches on symbolic state, forking paths per record ---------------

void CapUpdate(LedgerState& s, const LedgerEvent& e) {
  if (s.total < 100) {
    s.total += e.amount;
  }
}

using CapQuery = LambdaQuery<"cap", &LedgerParse, &CapUpdate, &LoopResult,
                             &LedgerSerialize, &LedgerDeserialize>;

// ----------------------------------------------------------------------------

TEST(Degradation, PathExplodingUdaDegradesAndMatchesSequential) {
  std::vector<std::vector<std::string>> chunks = {{"1", "1", "2"}, {"2", "1"}};
  const Dataset data = DatasetFromLines(chunks);
  const auto seq = RunSequential<LoopQuery>(data);
  EXPECT_EQ(seq.outputs.at(1), 64);
  EXPECT_EQ(seq.outputs.at(2), 64);

  const auto sym = RunSymple<LoopQuery>(data);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_GT(sym.stats.degraded_segments, 0u);
  EXPECT_GT(sym.stats.replayed_records, 0u);
  EXPECT_EQ(sym.stats.degrade_reasons[static_cast<size_t>(
                DegradeReason::kPathExplosion)],
            sym.stats.degraded_segments);
}

TEST(Degradation, PathExplodingUdaDegradesInForkedEngine) {
  std::vector<std::vector<std::string>> chunks = {{"1", "2"}, {"1"}, {"2", "2"}};
  const Dataset data = DatasetFromLines(chunks);
  const auto seq = RunSequential<LoopQuery>(data);

  EngineOptions options;
  options.map_slots = 2;
  const auto forked = RunSympleForked<LoopQuery>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GT(forked.stats.degraded_segments, 0u);
  EXPECT_GT(forked.stats.degrade_reasons[static_cast<size_t>(
                DegradeReason::kPathExplosion)],
            0u);
  // Degradation is not a worker failure: no retries, no crashes.
  EXPECT_EQ(forked.stats.worker_crashes, 0u);
  EXPECT_EQ(forked.stats.worker_retries, 0u);
}

TEST(Degradation, AffineOverflowDegradesAtSegmentGranularity) {
  // Key 1 sees 50 records in segment 0 (overflow near record 40); key 2's
  // single record stays symbolic — the blast radius is one (chunk, group).
  std::vector<std::vector<std::string>> chunks(1);
  for (int i = 0; i < 50; ++i) {
    chunks[0].push_back("1");
  }
  chunks[0].push_back("2");
  const Dataset data = DatasetFromLines(chunks);
  const auto seq = RunSequential<TripleQuery>(data);
  EXPECT_EQ(seq.outputs.at(1), 0);

  const auto sym = RunSymple<TripleQuery>(data);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.degraded_segments, 1u);
  EXPECT_EQ(
      sym.stats.degrade_reasons[static_cast<size_t>(DegradeReason::kOverflow)],
      1u);
  // Key 2's group still shipped a symbolic summary.
  EXPECT_GT(sym.stats.summaries, 0u);
}

TEST(Degradation, OverflowMessageReachesRunReport) {
  std::vector<std::vector<std::string>> chunks(1);
  for (int i = 0; i < 50; ++i) {
    chunks[0].push_back("1");
  }
  const Dataset data = DatasetFromLines(chunks);
  EngineOptions options;
  obs::RunObserver observer("symple");
  options.observer = &observer;
  const auto sym = RunSymple<TripleQuery>(data, options);
  ASSERT_EQ(sym.stats.degraded_segments, 1u);

  const obs::RunReport report =
      MakeRunReport("triple", "symple", options, sym.stats, &observer);
  EXPECT_EQ(report.degraded_segment_events, 1u);
  ASSERT_FALSE(report.degrade_messages.empty());
  // The original SympleOverflowError text survives into the report.
  EXPECT_NE(report.degrade_messages[0].find("overflow"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"degrades\":"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
}

TEST(Degradation, PathBudgetCapsSymbolicWork) {
  // CapUpdate forks per record; a tight per-segment path budget degrades the
  // hot group while leaving the engine semantics untouched.
  std::vector<std::vector<std::string>> chunks(1);
  for (int i = 0; i < 12; ++i) {
    chunks[0].push_back("1\t30");
  }
  chunks[0].push_back("2\t5");
  const Dataset data = DatasetFromLines(chunks);
  const auto seq = RunSequential<CapQuery>(data);

  EngineOptions options;
  options.budgets.max_paths_per_segment = 4;
  const auto sym = RunSymple<CapQuery>(data, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_GT(sym.stats.degraded_segments, 0u);
  EXPECT_EQ(sym.stats.degrade_reasons[static_cast<size_t>(
                DegradeReason::kPathBudget)],
            sym.stats.degraded_segments);

  // Without the budget the same query stays fully symbolic.
  const auto free = RunSymple<CapQuery>(data);
  EXPECT_TRUE(free.outputs == seq.outputs);
  EXPECT_EQ(free.stats.degraded_segments, 0u);
}

TEST(Degradation, SummaryBytesBudgetDegrades) {
  const Dataset data = LedgerData(2, 8);
  const auto seq = RunSequential<LedgerQuery>(data);

  EngineOptions options;
  options.budgets.max_summary_bytes_per_segment = 1;  // nothing fits
  const auto sym = RunSymple<LedgerQuery>(data, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_GT(sym.stats.degraded_segments, 0u);
  EXPECT_EQ(sym.stats.summaries, 0u);
  EXPECT_EQ(sym.stats.degrade_reasons[static_cast<size_t>(
                DegradeReason::kSummaryBytes)],
            sym.stats.degraded_segments);
}

TEST(Degradation, ForceDegradeIsByteIdenticalInProcess) {
  const Dataset data = LedgerData(3, 10);
  const auto seq = RunSequential<LedgerQuery>(data);

  EngineOptions options;
  options.budgets.force_degrade = true;
  const auto sym = RunSymple<LedgerQuery>(data, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_GT(sym.stats.degraded_segments, 0u);
  EXPECT_EQ(sym.stats.summaries, 0u);
  EXPECT_EQ(
      sym.stats.degrade_reasons[static_cast<size_t>(DegradeReason::kForced)],
      sym.stats.degraded_segments);
  // Every parsed record was re-executed concretely at the reducer.
  EXPECT_EQ(sym.stats.replayed_records, sym.stats.parsed_records);
}

TEST(Degradation, ForceDegradeIsByteIdenticalForked) {
  const Dataset data = LedgerData(4, 10);
  const auto seq = RunSequential<LedgerQuery>(data);

  EngineOptions options;
  options.map_slots = 2;
  options.budgets.force_degrade = true;
  const auto forked = RunSympleForked<LedgerQuery>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GT(forked.stats.degraded_segments, 0u);
  EXPECT_EQ(
      forked.stats.degrade_reasons[static_cast<size_t>(DegradeReason::kForced)],
      forked.stats.degraded_segments);
}

TEST(Degradation, CorruptFrameReportedInRunReport) {
  // A corrupt frame kills its worker, whose segments are re-executed: the
  // report shows the kill and the rejected frame, and nothing degrades.
  const Dataset data = LedgerData(6, 8);
  FaultGuard fault("corrupt:worker=0:frame=1");
  EngineOptions options;
  options.map_slots = 3;
  obs::RunObserver observer("symple-forked");
  options.observer = &observer;
  const auto forked = RunSympleForked<LedgerQuery>(data, options);
  ASSERT_GE(forked.stats.wire_corrupt_frames, 1u);
  EXPECT_GE(forked.stats.worker_retries, 1u);

  const obs::RunReport report =
      MakeRunReport("ledger", "symple-forked", options, forked.stats, &observer);
  EXPECT_GE(report.worker_failures, 1u);  // the "corrupt" kill
  EXPECT_GE(report.totals.wire_corrupt_frames, 1u);
  EXPECT_EQ(report.degraded_segment_events, 0u);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"wire_corrupt_frames\":"), std::string::npos);
}

TEST(Degradation, BaselineTreatsCorruptionAsCrashAndRetries) {
  // The baseline has no symbolic/concrete distinction to degrade across, so
  // a corrupt stream is handled like a crash: kill and re-execute.
  const Dataset data = LedgerData(4, 8);
  const auto seq = RunSequential<LedgerQuery>(data);

  FaultGuard fault("corrupt:worker=1:frame=1");
  EngineOptions options;
  options.map_slots = 2;
  const auto forked = RunBaselineForked<LedgerQuery>(data, options);
  EXPECT_TRUE(forked.outputs == seq.outputs);
  EXPECT_GE(forked.stats.wire_corrupt_frames, 1u);
  EXPECT_GE(forked.stats.worker_crashes, 1u);
  EXPECT_GE(forked.stats.worker_retries, 1u);
  EXPECT_EQ(forked.stats.degraded_segments, 0u);
}

TEST(Degradation, CleanRunsReportZeroDegrades) {
  const Dataset data = LedgerData(3, 10);
  const auto sym = RunSymple<LedgerQuery>(data);
  EXPECT_EQ(sym.stats.degraded_segments, 0u);
  EXPECT_EQ(sym.stats.replayed_records, 0u);
  EXPECT_EQ(sym.stats.wire_corrupt_frames, 0u);
  for (size_t i = 0; i < kDegradeReasonCount; ++i) {
    EXPECT_EQ(sym.stats.degrade_reasons[i], 0u);
  }

  EngineOptions options;
  options.map_slots = 2;
  const auto forked = RunSympleForked<LedgerQuery>(data, options);
  EXPECT_EQ(forked.stats.degraded_segments, 0u);
  EXPECT_EQ(forked.stats.wire_corrupt_frames, 0u);
}

}  // namespace
}  // namespace symple
