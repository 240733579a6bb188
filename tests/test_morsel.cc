// Tests for the morsel-driven map scheduler (docs/scheduling.md): the
// record-aligned chunker, the stealing deques, byte-identical engine output
// at extreme morsel sizes, zero-record edge cases, and the ThreadPool
// exception-containment contract (a throwing UDA degrades or surfaces as a
// typed error — it never std::terminates the process).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/text.h"
#include "common/thread_pool.h"
#include "core/degrade.h"
#include "queries/all_queries.h"
#include "queries/text_row.h"
#include "runtime/dataset.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"
#include "runtime/process_engine.h"
#include "workloads/redshift_gen.h"

namespace symple {
namespace {

using internal::AppendSegmentMorsels;
using internal::Morsel;
using internal::ResolveMorselRecords;

constexpr size_t kHuge = std::numeric_limits<size_t>::max();

// --- the chunker -------------------------------------------------------------

std::vector<Morsel> Chunk(std::string_view seg, size_t target) {
  std::vector<Morsel> out;
  AppendSegmentMorsels(seg, 0, target, &out);
  return out;
}

TEST(MorselChunker, EmptySegmentYieldsOneEmptyMorsel) {
  const auto m = Chunk("", 4);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].byte_begin, 0u);
  EXPECT_EQ(m[0].byte_end, 0u);
  EXPECT_EQ(m[0].first_record, 0u);
}

TEST(MorselChunker, TargetAtOrAboveByteCountIsOneMorsel) {
  const std::string seg = "aa\nbb\ncc\n";
  const auto m = Chunk(seg, seg.size());
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].byte_end, seg.size());
}

TEST(MorselChunker, SplitsOnRecordBoundaries) {
  const auto m = Chunk("aa\nbb\ncc\ndd\n", 1);
  ASSERT_EQ(m.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m[i].byte_begin, i * 3) << i;
    EXPECT_EQ(m[i].byte_end, i * 3 + 3) << i;
    EXPECT_EQ(m[i].first_record, i) << i;
  }
}

TEST(MorselChunker, UnevenTailKeepsItsOwnMorsel) {
  const auto m = Chunk("aa\nbb\ncc\ndd\n", 3);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].byte_end, 9u);
  EXPECT_EQ(m[1].byte_begin, 9u);
  EXPECT_EQ(m[1].first_record, 3u);
}

TEST(MorselChunker, TrailingChunkWithoutNewlineIsOneRecord) {
  const auto m = Chunk("aa\nbb", 1);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[1].byte_begin, 3u);
  EXPECT_EQ(m[1].byte_end, 5u);
  EXPECT_EQ(m[1].first_record, 1u);
}

TEST(MorselChunker, MorselsTileTheSegmentExactly) {
  const std::string seg = "1\n22\n333\n4444\n55555\n\n7\n";
  for (const size_t target : {size_t{1}, size_t{2}, size_t{3}, size_t{100}}) {
    const auto m = Chunk(seg, target);
    size_t pos = 0;
    uint64_t records = 0;
    for (const Morsel& one : m) {
      EXPECT_EQ(one.byte_begin, pos);
      EXPECT_EQ(one.first_record, records);
      LineCursor cur(std::string_view(seg).substr(one.byte_begin,
                                                  one.byte_end - one.byte_begin));
      while (cur.Next()) {
        ++records;
      }
      pos = one.byte_end;
    }
    EXPECT_EQ(pos, seg.size()) << "target " << target;
    EXPECT_EQ(records, 7u) << "target " << target;
  }
}

// --- auto sizing -------------------------------------------------------------

TEST(MorselResolve, ExplicitOptionWins) {
  EXPECT_EQ(ResolveMorselRecords(7, 1000000, 8), 7u);
}

TEST(MorselResolve, SingleSlotAndEmptyInputDisableChunking) {
  EXPECT_EQ(ResolveMorselRecords(0, 1000000, 1), kHuge);
  EXPECT_EQ(ResolveMorselRecords(0, 1000000, 0), kHuge);
  EXPECT_EQ(ResolveMorselRecords(0, 0, 8), kHuge);
}

TEST(MorselResolve, AutoClampsToFloorAndCeiling) {
  // 10k records / (4 slots * 8) = 312 -> floored to kMorselMinRecords.
  EXPECT_EQ(ResolveMorselRecords(0, 10000, 4), internal::kMorselMinRecords);
  // In-range target passes through.
  EXPECT_EQ(ResolveMorselRecords(
                0, 4 * internal::kMorselsPerSlotTarget * 5000, 4),
            5000u);
  EXPECT_EQ(ResolveMorselRecords(0, uint64_t{1} << 40, 2),
            internal::kMorselMaxRecords);
}

// --- stealing deques ---------------------------------------------------------

TEST(MorselStealingQueues, OwnerPopsFrontInSeedOrder) {
  StealingIndexQueues q(2);
  q.Push(0, 10);
  q.Push(0, 11);
  q.Push(0, 12);
  size_t item = 0;
  EXPECT_TRUE(q.PopLocal(0, &item));
  EXPECT_EQ(item, 10u);
  EXPECT_TRUE(q.PopLocal(0, &item));
  EXPECT_EQ(item, 11u);
  EXPECT_EQ(q.steals(), 0u);
}

TEST(MorselStealingQueues, ThiefTakesTheBack) {
  StealingIndexQueues q(2);
  q.Push(0, 10);
  q.Push(0, 11);
  q.Push(0, 12);
  size_t item = 0;
  EXPECT_TRUE(q.Steal(1, &item));
  EXPECT_EQ(item, 12u);
  EXPECT_EQ(q.steals(), 1u);
  // The owner still sees its front.
  EXPECT_TRUE(q.PopLocal(0, &item));
  EXPECT_EQ(item, 10u);
}

TEST(MorselStealingQueues, NextFallsBackToStealing) {
  StealingIndexQueues q(3);
  q.Push(0, 42);
  size_t item = 0;
  bool stolen = false;
  EXPECT_TRUE(q.Next(2, &item, &stolen));
  EXPECT_EQ(item, 42u);
  EXPECT_TRUE(stolen);
  EXPECT_FALSE(q.Next(2, &item, &stolen));
}

TEST(MorselStealingQueues, ConcurrentDrainDeliversEachItemOnce) {
  constexpr size_t kItems = 2000;
  constexpr size_t kWorkers = 4;
  StealingIndexQueues q(kWorkers);
  // Deliberately skewed: everything seeded on queue 0, so workers 1..3 only
  // make progress by stealing.
  for (size_t i = 0; i < kItems; ++i) {
    q.Push(0, i);
  }
  std::mutex mu;
  std::set<size_t> seen;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([w, &q, &mu, &seen] {
      size_t item = 0;
      bool stolen = false;
      while (q.Next(w, &item, &stolen)) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(item).second) << "item delivered twice";
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(seen.size(), kItems);
}

// --- engine byte-identity under morsel scheduling ----------------------------

// All five engines against the sequential reference at one morsel size.
template <typename Query>
void ExpectFiveWayIdentical(const Dataset& data, size_t morsel_records) {
  EngineOptions options;
  options.map_slots = 4;
  options.reduce_slots = 3;
  options.morsel_records = morsel_records;
  const auto seq = RunSequential<Query>(data);
  const auto mr = RunBaselineMapReduce<Query>(data, options);
  const auto sym = RunSymple<Query>(data, options);
  const auto symf = RunSympleForked<Query>(data, options);
  const auto mrf = RunBaselineForked<Query>(data, options);
  EXPECT_TRUE(seq.outputs == mr.outputs)
      << Query::kName << ": baseline diverged at morsel_records=" << morsel_records;
  EXPECT_TRUE(seq.outputs == sym.outputs)
      << Query::kName << ": SYMPLE diverged at morsel_records=" << morsel_records;
  EXPECT_TRUE(seq.outputs == symf.outputs)
      << Query::kName << ": forked SYMPLE diverged at morsel_records=" << morsel_records;
  EXPECT_TRUE(seq.outputs == mrf.outputs)
      << Query::kName << ": forked baseline diverged at morsel_records=" << morsel_records;
}

Dataset MorselRedshift(size_t records, size_t segments) {
  RedshiftGenParams p;
  p.num_records = records;
  p.num_segments = segments;
  p.num_advertisers = 40;
  p.condensed = false;
  p.filler_columns = 1;
  return GenerateRedshiftLog(p);
}

TEST(MorselEquivalence, SizeOne) {
  const Dataset data = MorselRedshift(900, 5);
  ExpectFiveWayIdentical<R1Impressions>(data, 1);
  ExpectFiveWayIdentical<R4CampaignRuns>(data, 1);
}

TEST(MorselEquivalence, SizeSeven) {
  const Dataset data = MorselRedshift(3000, 5);
  ExpectFiveWayIdentical<R1Impressions>(data, 7);
  ExpectFiveWayIdentical<R4CampaignRuns>(data, 7);
}

TEST(MorselEquivalence, DefaultAuto) {
  const Dataset data = MorselRedshift(3000, 5);
  ExpectFiveWayIdentical<R1Impressions>(data, 0);
  ExpectFiveWayIdentical<R4CampaignRuns>(data, 0);
}

TEST(MorselEquivalence, LargerThanAnySegment) {
  const Dataset data = MorselRedshift(3000, 5);
  ExpectFiveWayIdentical<R1Impressions>(data, size_t{1} << 28);
  ExpectFiveWayIdentical<R4CampaignRuns>(data, size_t{1} << 28);
}

TEST(MorselEquivalence, AwkwardSegmentCounts) {
  // Segment counts around the slot count so seeding wraps and some deques
  // start with two segments while others start empty.
  for (const size_t segments : {size_t{1}, size_t{3}, size_t{7}}) {
    const Dataset data = MorselRedshift(1200, segments);
    ExpectFiveWayIdentical<R1Impressions>(data, 7);
  }
}

// --- stats plumbing ----------------------------------------------------------

TEST(MorselStats, ExplicitSizeCountsMorselsPerSegment) {
  // 2 segments x 5 records at 2 records/morsel = 3 morsels each.
  const Dataset data = DatasetFromLines({
      {"1\t1\t0\tC0", "2\t1\t0\tC0", "3\t1\t0\tC0", "4\t1\t0\tC0", "5\t1\t0\tC0"},
      {"6\t1\t0\tC0", "7\t1\t0\tC0", "8\t1\t0\tC0", "9\t1\t0\tC0", "10\t1\t0\tC0"},
  });
  EngineOptions options;
  options.map_slots = 2;
  options.morsel_records = 2;
  const auto sym = RunSymple<R1Impressions>(data, options);
  EXPECT_EQ(sym.stats.map_morsels, 6u);
  EXPECT_EQ(sym.stats.morsel_target_records, 2u);
  EXPECT_NE(sym.stats.OneLine().find("morsels=6"), std::string::npos);
}

TEST(MorselStats, SingleSlotAutoKeepsWholeSegments) {
  const Dataset data = MorselRedshift(1000, 4);
  EngineOptions options;
  options.map_slots = 1;
  const auto sym = RunSymple<R1Impressions>(data, options);
  EXPECT_EQ(sym.stats.map_morsels, 4u);
  EXPECT_EQ(sym.stats.morsel_target_records, 0u);  // auto, chunking disabled
  EXPECT_EQ(sym.stats.morsel_steals, 0u);
}

// --- zero-record edges across all five engines -------------------------------

TEST(MorselEdge, EmptyDatasetAllFiveEngines) {
  const Dataset empty;
  ExpectFiveWayIdentical<R1Impressions>(empty, 0);
  ExpectFiveWayIdentical<R1Impressions>(empty, 1);
}

TEST(MorselEdge, OnlyEmptySegments) {
  const Dataset data = DatasetFromLines({{}, {}, {}});
  ExpectFiveWayIdentical<R1Impressions>(data, 1);
  EngineOptions options;
  options.map_slots = 4;
  options.morsel_records = 1;
  const auto sym = RunSymple<R1Impressions>(data, options);
  EXPECT_TRUE(sym.outputs.empty());
  // One (empty) morsel per segment: per-segment accounting survives.
  EXPECT_EQ(sym.stats.map_morsels, 3u);
}

TEST(MorselEdge, MoreSlotsThanRecords) {
  const Dataset data = DatasetFromLines({{"1\t1\t0\tC0"}, {"2\t2\t0\tC0"}});
  EngineOptions options;
  options.map_slots = 16;
  options.reduce_slots = 16;
  options.morsel_records = 1;
  const auto seq = RunSequential<R1Impressions>(data);
  const auto sym = RunSymple<R1Impressions>(data, options);
  const auto mr = RunBaselineMapReduce<R1Impressions>(data, options);
  EXPECT_TRUE(seq.outputs == sym.outputs);
  EXPECT_TRUE(seq.outputs == mr.outputs);
}

// --- throwing UDAs: the ThreadPool "tasks must not throw" contract -----------

// A ledger query ("account<TAB>amount" lines) whose hooks can be rigged to
// throw, built on the LambdaQuery adapter.
struct TouchyState {
  SymInt total = 0;
  auto list_fields() { return std::tie(total); }
};

struct TouchyEvent {
  int64_t amount = 0;
};

std::optional<std::pair<int64_t, TouchyEvent>> TouchyParse(std::string_view line) {
  if (line == "BOOM") {
    throw SympleError("user parse exploded");
  }
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
  return std::make_pair(*account_id, TouchyEvent{*amount_v});
}

void TouchyUpdate(TouchyState& s, const TouchyEvent& e) {
  s.total += e.amount;
}

// Refuses to run symbolically: map-side summaries always throw, while the
// sequential engine and the reducer's concrete replay (concrete state) work.
void SymbolShyUpdate(TouchyState& s, const TouchyEvent& e) {
  if (!s.total.is_concrete()) {
    throw SympleUnsupportedOpError("this UDA refuses symbolic state");
  }
  s.total += e.amount;
}

// Throws concretely on a marker amount: exercises the reduce-stage
// containment in the baseline engine, where Update runs at the reducer.
void TripwireUpdate(TouchyState& s, const TouchyEvent& e) {
  if (e.amount == 13) {
    throw SympleError("tripwire amount");
  }
  s.total += e.amount;
}

int64_t TouchyResult(const TouchyState& s, const int64_t&) {
  return s.total.Value();
}

void TouchySerialize(const TouchyEvent& e, BinaryWriter& w) {
  WriteTextRow(w, {e.amount});
}

TouchyEvent TouchyDeserialize(BinaryReader& r) {
  return TouchyEvent{ReadTextRow<1>(r)[0]};
}

using ThrowingParseQuery =
    LambdaQuery<"touchy_parse", &TouchyParse, &TouchyUpdate, &TouchyResult,
                &TouchySerialize, &TouchyDeserialize>;
using SymbolShyQuery =
    LambdaQuery<"symbol_shy", &TouchyParse, &SymbolShyUpdate, &TouchyResult,
                &TouchySerialize, &TouchyDeserialize>;
using TripwireQuery =
    LambdaQuery<"tripwire", &TouchyParse, &TripwireUpdate, &TouchyResult,
                &TouchySerialize, &TouchyDeserialize>;

Dataset BoomDataset() {
  return DatasetFromLines({
      {"1\t100", "2\t-50"},
      {"1\t25", "BOOM", "3\t7"},
      {"2\t1"},
  });
}

TEST(MorselThrowingUda, BaselineMapSurfacesTypedError) {
  // Before the morsel scheduler the escaping SympleError crossed
  // ThreadPool::Submit and std::terminate'd the process; now it must arrive
  // as a typed, catchable map-stage error.
  EngineOptions options;
  options.map_slots = 3;
  EXPECT_THROW(RunBaselineMapReduce<ThrowingParseQuery>(BoomDataset(), options),
               SympleIoError);
}

TEST(MorselThrowingUda, SympleMapSurfacesTypedError) {
  // A throwing Parse escapes the map task before any group exists to
  // degrade, so SYMPLE fails the map stage exactly like the baseline: the
  // error must surface typed, not terminate.
  EngineOptions options;
  options.map_slots = 3;
  EXPECT_THROW(RunSymple<ThrowingParseQuery>(BoomDataset(), options),
               SympleIoError);
  options.morsel_records = 1;
  EXPECT_THROW(RunSymple<ThrowingParseQuery>(BoomDataset(), options),
               SympleIoError);
}

TEST(MorselThrowingUda, SymbolicOnlyThrowDegradesAndMatchesSequential) {
  const Dataset data = DatasetFromLines({
      {"1\t100", "2\t-50", "1\t25"},
      {"1\t-10", "2\t200", "3\t7"},
      {"2\t1", "1\t4"},
  });
  const auto seq = RunSequential<SymbolShyQuery>(data);
  for (const size_t morsel_records : {size_t{0}, size_t{1}, size_t{2}}) {
    EngineOptions options;
    options.map_slots = 3;
    options.morsel_records = morsel_records;
    const auto sym = RunSymple<SymbolShyQuery>(data, options);
    EXPECT_TRUE(seq.outputs == sym.outputs)
        << "morsel_records=" << morsel_records;
    EXPECT_GT(sym.stats.degraded_segments, 0u);
    EXPECT_GT(sym.stats.degrade_reasons[static_cast<size_t>(
                  DegradeReason::kUnsupportedOp)],
              0u);
  }
}

TEST(MorselThrowingUda, ReduceStageThrowSurfacesTyped) {
  const Dataset data = DatasetFromLines({{"1\t100", "2\t13"}, {"3\t7"}});
  EngineOptions options;
  options.map_slots = 2;
  // Baseline runs Update concretely at the reducer; the tripwire must come
  // back as the reduce stage's typed error, not terminate the pool.
  EXPECT_THROW(RunBaselineMapReduce<TripwireQuery>(data, options),
               SympleIoError);
}

}  // namespace
}  // namespace symple
