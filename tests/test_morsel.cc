// Tests for the morsel-driven map scheduler (docs/scheduling.md): the input
// index and the record-aligned cut made from it, the stealing deques,
// byte-identical engine output at extreme morsel sizes, zero-record edge
// cases, and exception containment in the map and reduce stages (a throwing
// UDA degrades or surfaces as a typed error — it never std::terminates the
// process).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
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
using internal::BuildInputIndex;
using internal::InputIndex;
using internal::kIndexSliceBytes;
using internal::Morsel;
using internal::ResolveMorselRecords;

constexpr size_t kHuge = std::numeric_limits<size_t>::max();

// --- the chunker -------------------------------------------------------------

// One segment cut from its own index.
std::vector<Morsel> Chunk(std::string_view seg, size_t target) {
  const InputIndex index = BuildInputIndex({std::string(seg)}, 1);
  std::vector<Morsel> out;
  AppendSegmentMorsels(seg, index.slice_newlines[0], 0, target, &out);
  return out;
}

// The whole-segment memchr walk the indexed cut replaced, kept as the
// reference it must match morsel for morsel.
void ReferenceCut(std::string_view seg, uint32_t segment_id, size_t target_records,
                  std::vector<Morsel>* out) {
  if (target_records >= seg.size()) {
    out->push_back(Morsel{segment_id, 0, seg.size(), 0});
    return;
  }
  size_t begin = 0;
  uint64_t first_record = 0;
  uint64_t records = 0;
  size_t pos = 0;
  while (pos < seg.size()) {
    const void* nl = memchr(seg.data() + pos, '\n', seg.size() - pos);
    pos = nl != nullptr
              ? static_cast<size_t>(static_cast<const char*>(nl) - seg.data()) + 1
              : seg.size();
    ++records;
    if (records - first_record >= target_records) {
      out->push_back(Morsel{segment_id, begin, pos, first_record});
      begin = pos;
      first_record = records;
    }
  }
  if (begin < seg.size() || out->empty() || out->back().segment != segment_id) {
    out->push_back(Morsel{segment_id, begin, seg.size(), first_record});
  }
}

std::vector<Morsel> ReferenceCutAll(const Dataset& data, size_t target) {
  std::vector<Morsel> out;
  for (uint32_t s = 0; s < data.segments.size(); ++s) {
    ReferenceCut(data.segments[s], s, target, &out);
  }
  return out;
}

// Index of the first morsel that differs, or -1 when `a` and `b` are equal.
int64_t FirstDifference(const std::vector<Morsel>& a, const std::vector<Morsel>& b) {
  const auto fields = [](const Morsel& m) {
    return std::tie(m.segment, m.byte_begin, m.byte_end, m.first_record);
  };
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (fields(a[i]) != fields(b[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<int64_t>(std::min(a.size(), b.size()));
}

// Lines of 0..max_line bytes until the segment reaches `bytes`; without
// `trailing_newline` the last line loses its '\n'.
std::string RandomSegment(SplitMix64& rng, size_t bytes, size_t max_line,
                          bool trailing_newline) {
  std::string seg;
  seg.reserve(bytes + max_line + 1);
  while (seg.size() < bytes) {
    seg.append(rng.Below(max_line + 1), 'x');
    seg.push_back('\n');
  }
  if (!trailing_newline && !seg.empty()) {
    seg.back() = 'y';
  }
  return seg;
}

uint64_t LineCount(std::string_view seg) {
  uint64_t n = 0;
  LineCursor cur(seg);
  while (cur.Next()) {
    ++n;
  }
  return n;
}

// Checks one dataset's index against LineCursor and its cut against the
// reference walk at `target`, with the index built on `slots` threads.
void ExpectIndexedCutMatchesReference(const Dataset& data, size_t target,
                                      size_t slots) {
  const InputIndex index = BuildInputIndex(data.segments, slots);
  ASSERT_EQ(index.segment_records.size(), data.segments.size());
  EXPECT_EQ(index.total_records, data.TotalRecords());
  std::vector<Morsel> cut;
  for (uint32_t s = 0; s < data.segments.size(); ++s) {
    EXPECT_EQ(index.segment_records[s], LineCount(data.segments[s])) << "segment " << s;
    AppendSegmentMorsels(data.segments[s], index.slice_newlines[s], s, target, &cut);
  }
  const std::vector<Morsel> reference = ReferenceCutAll(data, target);
  EXPECT_EQ(FirstDifference(cut, reference), -1)
      << "target " << target << ", slots " << slots << ", " << cut.size()
      << " morsels against " << reference.size();
}

TEST(MorselChunker, IndexedCutMatchesReferenceWalk) {
  // Fixed shapes first: a '\n' on the last byte of every slice, and
  // segments of exactly two slices with and without a trailing '\n'.
  const std::string line15(15, 'x');
  std::string exact;
  for (size_t i = 0; i < 2 * kIndexSliceBytes / 16; ++i) {
    exact += line15 + '\n';
  }
  ASSERT_EQ(exact.size(), 2 * kIndexSliceBytes);
  ASSERT_EQ(exact[kIndexSliceBytes - 1], '\n');
  std::string exact_open = exact;
  exact_open.back() = 'y';
  const std::string one_line_slice = std::string(kIndexSliceBytes - 1, 'x') + "\n" + "ab\ncd";
  for (const size_t target : {size_t{1}, size_t{7}, size_t{16383}, size_t{16384},
                              size_t{16385}, size_t{50000}}) {
    Dataset data;
    data.segments = {exact, exact_open, one_line_slice, ""};
    ExpectIndexedCutMatchesReference(data, target, 4);
  }

  // Then seeded random inputs: 1-4 segments of 0 B to ~1.5 MiB, short,
  // medium and long lines, with and without a trailing '\n'.
  SplitMix64 rng(0x5eed1dce);
  const size_t max_lines[] = {3, 40, 400};
  for (int round = 0; round < 40; ++round) {
    Dataset data;
    const size_t segments = 1 + rng.Below(4);
    for (size_t s = 0; s < segments; ++s) {
      const size_t bytes = rng.Chance(1, 8) ? 0 : rng.Below(3 * kIndexSliceBytes * 2);
      data.segments.push_back(RandomSegment(rng, bytes, max_lines[rng.Below(3)],
                                            rng.Chance(1, 2)));
    }
    // Log-uniform targets from 1 to 50 000.
    const size_t target = std::min<size_t>(
        50000, static_cast<size_t>(std::exp(rng.NextDouble() * std::log(50000.0))));
    const size_t slots = 1 + rng.Below(4);
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectIndexedCutMatchesReference(data, std::max<size_t>(target, 1), slots);
  }
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

TEST(MorselStats, FiveEnginesCountAndCutFromTheIndex) {
  // Several slices per segment, unbudgeted and at a 256 KiB budget.
  const Dataset data = MorselRedshift(60000, 3);
  ASSERT_GT(data.segments[0].size(), 2 * kIndexSliceBytes);
  const uint64_t records = data.TotalRecords();
  for (const uint64_t budget : {uint64_t{0}, uint64_t{256} << 10}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    EngineOptions options;
    options.map_slots = 4;
    options.reduce_slots = 2;
    options.memory_budget_bytes = budget;
    const size_t target = ResolveMorselRecords(0, records, options.map_slots);
    const size_t reference_morsels = ReferenceCutAll(data, target).size();
    const auto seq = RunSequential<R1Impressions>(data, options);
    EXPECT_EQ(seq.stats.input_records, records);
    for (const auto& run : {RunBaselineMapReduce<R1Impressions>(data, options),
                            RunSymple<R1Impressions>(data, options)}) {
      EXPECT_TRUE(run.outputs == seq.outputs);
      EXPECT_EQ(run.stats.input_records, records);
      EXPECT_EQ(run.stats.map_morsels, reference_morsels);
      EXPECT_EQ(run.stats.morsel_target_records, target);
    }
    // Forked children map whole segments and report no morsels.
    for (const auto& run : {RunBaselineForked<R1Impressions>(data, options),
                            RunSympleForked<R1Impressions>(data, options)}) {
      EXPECT_TRUE(run.outputs == seq.outputs);
      EXPECT_EQ(run.stats.input_records, records);
    }
  }
}

TEST(MorselStats, IndexWallIsInsideTheMapWall) {
  const Dataset data = MorselRedshift(60000, 3);
  EngineOptions options;
  options.map_slots = 4;
  const auto mr = RunBaselineMapReduce<R1Impressions>(data, options);
  EXPECT_GT(mr.stats.index_wall_ms, 0);
  EXPECT_LE(mr.stats.index_wall_ms, mr.stats.map_wall_ms);
  EXPECT_NE(mr.stats.OneLine().find(" index="), std::string::npos);
  // The oracle runs no index pass.
  EXPECT_EQ(RunSequential<R1Impressions>(data).stats.index_wall_ms, 0);
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

// --- throwing UDAs: typed stage errors, never std::terminate ------------------

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
