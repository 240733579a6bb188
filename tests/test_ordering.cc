// Output-ordering regression suite for the flat-map swap (docs/group_map.md).
//
// The engines' ordering contract, made explicit here instead of riding on
// std::unordered_map accidents:
//   1. RunResult::outputs is keyed (std::map): iterating it yields key order,
//      so serializing the outputs of any engine — threaded, forked, or
//      sequential — over the same input must produce byte-identical bytes.
//   2. Within the map phase, a segment's packets are emitted in FIRST-SEEN
//      key order (FlatGroupMap iterates its dense entry vector in insertion
//      order), so mapper output is deterministic run over run.
//   3. Degrade markers (DeferSegmentPackets) follow the same first-seen order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "queries/all_queries.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "serialize/binary_io.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

// --- output byte-serialization helpers ------------------------------------------

void AppendValue(BinaryWriter& w, bool v) { w.WriteBool(v); }
void AppendValue(BinaryWriter& w, int64_t v) { w.WriteVarInt(v); }
template <typename T>
void AppendValue(BinaryWriter& w, const std::vector<T>& v) {
  w.WriteVarUint(v.size());
  for (const T& e : v) {
    AppendValue(w, e);
  }
}

// Serializes a RunResult's outputs in iteration order. Equal byte strings
// mean equal outputs *and* equal iteration order.
template <typename Query>
std::vector<uint8_t> OutputBytes(const RunResult<Query>& result) {
  BinaryWriter w;
  for (const auto& [key, output] : result.outputs) {
    AppendValue(w, key);
    AppendValue(w, output);
  }
  return w.TakeBuffer();
}

Dataset OrderingDataset(size_t segments) {
  GithubGenParams p;
  p.num_records = 5000;
  p.num_segments = segments;
  p.num_repos = 90;
  p.filler_bytes = 8;
  return GenerateGithubLog(p);
}

// --- 1. cross-engine byte identity ----------------------------------------------

// Also pins the counters every engine must report alike. Each 1000-record
// segment is one morsel at these options, so the threaded and forked runs of
// one map body execute the same tasks.
template <typename Query>
void ExpectAllFiveEnginesByteIdentical(const Dataset& data) {
  EngineOptions options;
  options.map_slots = 3;
  options.reduce_slots = 3;
  const auto seq = RunSequential<Query>(data, options);
  const auto mr = RunBaselineMapReduce<Query>(data, options);
  const auto sym = RunSymple<Query>(data, options);
  const auto mr_forked = RunBaselineForked<Query>(data, options);
  const auto sym_forked = RunSympleForked<Query>(data, options);
  const auto seq_bytes = OutputBytes(seq);
  EXPECT_FALSE(seq_bytes.empty());
  EXPECT_EQ(seq_bytes, OutputBytes(mr))
      << Query::kName << ": threaded baseline ordering/output diverged";
  EXPECT_EQ(seq_bytes, OutputBytes(sym))
      << Query::kName << ": threaded SYMPLE ordering/output diverged";
  EXPECT_EQ(seq_bytes, OutputBytes(mr_forked))
      << Query::kName << ": forked baseline ordering/output diverged";
  EXPECT_EQ(seq_bytes, OutputBytes(sym_forked))
      << Query::kName << ": forked SYMPLE ordering/output diverged";

  for (const EngineStats* s : {&mr.stats, &sym.stats, &mr_forked.stats, &sym_forked.stats}) {
    EXPECT_EQ(s->input_records, seq.stats.input_records) << Query::kName;
    EXPECT_EQ(s->parsed_records, seq.stats.parsed_records) << Query::kName;
  }
  for (const EngineStats* s :
       {&seq.stats, &mr.stats, &sym.stats, &mr_forked.stats, &sym_forked.stats}) {
    EXPECT_GT(s->map_cpu_ms, 0) << Query::kName;
  }
  EXPECT_EQ(mr_forked.stats.shuffle_bytes, mr.stats.shuffle_bytes) << Query::kName;
  EXPECT_EQ(sym_forked.stats.shuffle_bytes, sym.stats.shuffle_bytes) << Query::kName;
  EXPECT_EQ(sym_forked.stats.summaries, sym.stats.summaries) << Query::kName;
  EXPECT_EQ(sym_forked.stats.summary_paths, sym.stats.summary_paths) << Query::kName;
  EXPECT_EQ(sym_forked.stats.exploration.runs, sym.stats.exploration.runs)
      << Query::kName;
}

TEST(GroupOrdering, AllFiveEnginesByteIdentical) {
  const Dataset data = OrderingDataset(5);
  ExpectAllFiveEnginesByteIdentical<G1OnlyPushes>(data);
  ExpectAllFiveEnginesByteIdentical<G2OpsBeforeDelete>(data);
}

TEST(GroupOrdering, RepeatedRunsByteIdentical) {
  const Dataset data = OrderingDataset(4);
  EngineOptions options;
  options.map_slots = 4;
  options.reduce_slots = 2;
  const auto first = OutputBytes(RunSymple<G1OnlyPushes>(data, options));
  const auto second = OutputBytes(RunSymple<G1OnlyPushes>(data, options));
  EXPECT_EQ(first, second) << "same engine, same input, different bytes";
}

// An explicit capacity hint must never change results — only pre-sizing.
TEST(GroupOrdering, CapacityHintDoesNotChangeOutput) {
  const Dataset data = OrderingDataset(3);
  EngineOptions small_hint;
  small_hint.group_capacity_hint = 2;  // forces growth rehashes mid-segment
  EngineOptions big_hint;
  big_hint.group_capacity_hint = 1 << 14;  // no rehash at all
  EXPECT_EQ(OutputBytes(RunSymple<G1OnlyPushes>(data, small_hint)),
            OutputBytes(RunSymple<G1OnlyPushes>(data, big_hint)));
  EXPECT_EQ(OutputBytes(RunBaselineMapReduce<G1OnlyPushes>(data, small_hint)),
            OutputBytes(RunSequential<G1OnlyPushes>(data, big_hint)));
}

// --- 2. first-seen packet emission at the mapper --------------------------------

// Records first-appearance key order of the parsed records in a segment.
template <typename Query>
std::vector<typename Query::Key> FirstSeenKeys(const std::string& segment) {
  std::vector<typename Query::Key> order;
  LineCursor cursor(segment);
  while (const auto line = cursor.Next()) {
    auto rec = Query::Parse(*line);
    if (!rec.has_value()) {
      continue;
    }
    bool seen = false;
    for (const auto& k : order) {
      if (k == rec->first) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      order.push_back(rec->first);
    }
  }
  return order;
}

TEST(GroupOrdering, BaselineMapSegmentEmitsFirstSeenOrder) {
  const Dataset data = OrderingDataset(1);
  const std::string& segment = data.segments[0];
  const auto expected = FirstSeenKeys<G1OnlyPushes>(segment);
  ASSERT_GT(expected.size(), 10u);
  const EngineOptions options;
  obs::MapTaskObs ts;
  const auto packets = internal::MapChunk(
      internal::RowsBody<G1OnlyPushes>{data, options, 0}, segment, 0,
      /*first_record=*/0, &ts, /*budget=*/nullptr, /*shuffle=*/nullptr);
  ASSERT_EQ(packets.size(), expected.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].key, expected[i]) << "packet " << i << " out of order";
  }
}

TEST(GroupOrdering, SympleMapSegmentEmitsFirstSeenOrder) {
  const Dataset data = OrderingDataset(1);
  const std::string& segment = data.segments[0];
  const auto expected = FirstSeenKeys<G1OnlyPushes>(segment);
  const EngineOptions options;
  obs::MapTaskObs ts;
  const auto packets = internal::MapChunk(
      internal::SummariesBody<G1OnlyPushes>{data, options, 0}, segment, 0,
      /*first_record=*/0, &ts, /*budget=*/nullptr, /*shuffle=*/nullptr);
  ASSERT_EQ(packets.size(), expected.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].key, expected[i]) << "packet " << i << " out of order";
  }
}

// --- 3. degrade markers follow the same contract --------------------------------

TEST(GroupOrdering, DeferSegmentPacketsEmitsFirstSeenOrder) {
  const Dataset data = OrderingDataset(1);
  const std::string& segment = data.segments[0];
  const auto expected = FirstSeenKeys<G1OnlyPushes>(segment);
  const auto packets = internal::DeferSegmentPackets<G1OnlyPushes>(
      segment, 7, DegradeReason::kWireCorrupt, "test");
  ASSERT_EQ(packets.size(), expected.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].key, expected[i]) << "marker " << i << " out of order";
    EXPECT_EQ(packets[i].mapper_id, 7u);
  }
}

// --- FlatGroupMap iteration is insertion order, across growth and reuse ---------

TEST(GroupOrdering, FlatGroupMapIterationIsInsertionOrdered) {
  FlatGroupMap<int64_t, int64_t> map;
  std::vector<int64_t> inserted;
  for (int round = 0; round < 2; ++round) {
    for (int64_t i = 0; i < 3000; ++i) {
      const int64_t key = (i * 2654435761) % 977;  // repeats: only 977 groups
      auto [slot, is_new] = map.GetOrEmplace(key, 0);
      *slot += 1;
      if (is_new) {
        inserted.push_back(key);
      }
    }
    ASSERT_EQ(map.size(), inserted.size());
    size_t i = 0;
    for (const auto& entry : map) {
      EXPECT_EQ(entry.key, inserted[i]) << "entry " << i << " out of order";
      ++i;
    }
    map.Clear();  // round 2 re-fills the reused table
    inserted.clear();
  }
}

}  // namespace
}  // namespace symple
