// Tests for the LambdaQuery adapter: a full query defined from free
// functions, run through all three engines.
#include "runtime/lambda_query.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "common/text.h"
#include "core/symple.h"
#include "queries/text_row.h"
#include "runtime/engine.h"

namespace symple {
namespace {

// A small "total value per account" query over lines "account amount".
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

// LedgerParse that blocks for 20 ms on the marker line "sleep": wall time
// that is not CPU time.
std::optional<std::pair<int64_t, LedgerEvent>> SleepyParse(std::string_view line) {
  if (line == "sleep") {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::nullopt;
  }
  return LedgerParse(line);
}

using SleepyLedgerQuery = LambdaQuery<"sleepy_ledger", &SleepyParse, &LedgerUpdate,
                                      &LedgerResult, &LedgerSerialize,
                                      &LedgerDeserialize>;

TEST(LambdaQueryTest, TypesAreDeduced) {
  static_assert(std::is_same_v<LedgerQuery::Key, int64_t>);
  static_assert(std::is_same_v<LedgerQuery::Event, LedgerEvent>);
  static_assert(std::is_same_v<LedgerQuery::State, LedgerState>);
  static_assert(
      std::is_same_v<LedgerQuery::Output, std::pair<int64_t, int64_t>>);
  EXPECT_STREQ(LedgerQuery::kName, "ledger");
}

TEST(LambdaQueryTest, RunsThroughAllEngines) {
  const Dataset data = DatasetFromLines({
      {"1\t100", "2\t-50", "1\t25"},
      {"1\t-10", "2\t200", "3\t7"},
      {"2\t1", "1\t4"},
  });
  const auto seq = RunSequential<LedgerQuery>(data);
  const auto mr = RunBaselineMapReduce<LedgerQuery>(data);
  const auto sym = RunSymple<LedgerQuery>(data);

  EXPECT_EQ(seq.outputs.at(1), (std::pair<int64_t, int64_t>{119, 3}));
  EXPECT_EQ(seq.outputs.at(2), (std::pair<int64_t, int64_t>{151, 2}));
  EXPECT_EQ(seq.outputs.at(3), (std::pair<int64_t, int64_t>{7, 1}));
  EXPECT_TRUE(mr.outputs == seq.outputs);
  EXPECT_TRUE(sym.outputs == seq.outputs);
}

TEST(LambdaQueryTest, SequentialReportsThreadCpuNotWall) {
  const Dataset data = DatasetFromLines({{"1\t5", "sleep", "1\t7"}});
  const auto seq = RunSequential<SleepyLedgerQuery>(data);
  EXPECT_EQ(seq.stats.parsed_records, 2u);
  EXPECT_GE(seq.stats.total_wall_ms, 20.0);
  // The sleep is wall time the scan spent blocked: map_cpu_ms is measured
  // on the thread clock, not copied from the wall.
  EXPECT_LT(seq.stats.map_cpu_ms, seq.stats.total_wall_ms - 10);
}

TEST(LambdaQueryTest, SymbolicAdditionsNeverFork) {
  // The ledger UDA only adds to its state: single path per summary.
  const Dataset data = DatasetFromLines({{"1\t5", "1\t6", "1\t-2"}});
  const auto sym = RunSymple<LedgerQuery>(data);
  EXPECT_EQ(sym.stats.exploration.decisions, 0u);
  EXPECT_EQ(sym.stats.summary_paths, 1u);
}

// --- a query whose output vector carries strings -----------------------------------

struct TagState {
  SymBool armed = false;
  SymVector<std::string> tags;
  auto list_fields() { return std::tie(armed, tags); }
};

struct TagEvent {
  bool arm = false;
  std::string tag;
};

std::optional<std::pair<int64_t, TagEvent>> TagParse(std::string_view line) {
  FieldCursor cur(line);
  const auto key = cur.Next();
  const auto arm = cur.Next();
  const auto tag = cur.Next();
  if (!key || !arm || !tag) {
    return std::nullopt;
  }
  const auto key_id = ParseInt64(*key);
  if (!key_id) {
    return std::nullopt;
  }
  return std::make_pair(*key_id, TagEvent{*arm == "1", std::string(*tag)});
}

void TagUpdate(TagState& s, const TagEvent& e) {
  if (e.arm) {
    s.armed = true;
  } else if (s.armed) {
    s.tags.push_back(e.tag);  // string payload collected while armed
    s.armed = false;
  }
}

std::vector<std::string> TagResult(const TagState& s, const int64_t&) {
  return s.tags.Values();
}

void TagSerialize(const TagEvent& e, BinaryWriter& w) {
  w.WriteBool(e.arm);
  w.WriteString(e.tag);
}

TagEvent TagDeserialize(BinaryReader& r) {
  TagEvent e;
  e.arm = r.ReadBool();
  e.tag = r.ReadString();
  return e;
}

using TagQuery = LambdaQuery<"tags", &TagParse, &TagUpdate, &TagResult,
                             &TagSerialize, &TagDeserialize>;

TEST(LambdaQueryTest, StringVectorPayloadsAcrossChunks) {
  // The arm flag crosses a chunk boundary: the follower chunk's push happens
  // on a symbolic path resolved at composition. String elements are concrete
  // (strings have no affine form), but they ride inside path-dependent
  // vectors that must stitch in exact order.
  const Dataset data = DatasetFromLines({
      {"1	1	-", "1	0	alpha", "1	1	-"},
      {"1	0	beta", "2	1	-"},
      {"2	0	gamma", "1	1	-", "1	0	delta"},
  });
  const auto seq = RunSequential<TagQuery>(data);
  const auto sym = RunSymple<TagQuery>(data);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_EQ(sym.outputs.at(1),
            (std::vector<std::string>{"alpha", "beta", "delta"}));
  EXPECT_EQ(sym.outputs.at(2), (std::vector<std::string>{"gamma"}));
}

TEST(LambdaQueryTest, StringVectorUnderForcedRestarts) {
  EngineOptions tight;
  tight.aggregator.max_live_paths = 1;
  const Dataset data = DatasetFromLines({
      {"1	1	-", "1	0	a", "1	1	-", "1	0	b"},
      {"1	1	-", "1	0	c"},
  });
  const auto sym = RunSymple<TagQuery>(data, tight);
  EXPECT_EQ(sym.outputs.at(1), (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace symple
