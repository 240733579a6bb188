// The hash-partitioned parallel shuffle (docs/shuffle.md): partition routing,
// arithmetic packet sizing, skew-aware scheduling, and the property that the
// partitioned shuffle preserves the old global sort's per-key packet order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "queries/all_queries.h"
#include "runtime/cost_model.h"
#include "runtime/engine.h"
#include "runtime/process_engine.h"
#include "workloads/bing_gen.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

using internal::PacketBytes;
using internal::ShuffleBuffer;
using internal::ShufflePacket;
using internal::ShufflePartitionOf;

template <typename Key>
ShufflePacket<Key> MakePacket(Key key, uint32_t mapper_id, uint64_t record_id,
                              size_t blob_size) {
  ShufflePacket<Key> p;
  p.key = std::move(key);
  p.mapper_id = mapper_id;
  p.record_id = record_id;
  p.blob.assign(blob_size, 0xab);
  return p;
}

// PacketBytes must equal the actual serialized wire size of the packet (the
// forked engines' frame body layout), for edge-case ids and key shapes.
template <typename Key>
void ExpectPacketBytesMatchSerialized(const ShufflePacket<Key>& p) {
  BinaryWriter w;
  internal::SerializePacketFrame(p, w);
  EXPECT_EQ(PacketBytes(p), w.size())
      << "mapper=" << p.mapper_id << " record=" << p.record_id
      << " blob=" << p.blob.size();
}

TEST(ShuffleBytes, PacketBytesMatchesSerializedSizeEdgeIds) {
  const uint32_t mapper_edges[] = {0, 1, 127, 128, 0xffffffffu};
  const uint64_t record_edges[] = {0, 1, 127, 128, 0xffffffffull,
                                   0xffffffffffffffffull};
  for (const uint32_t m : mapper_edges) {
    for (const uint64_t r : record_edges) {
      for (const size_t blob : {size_t{0}, size_t{1}, size_t{127}, size_t{300}}) {
        ExpectPacketBytesMatchSerialized(MakePacket<int64_t>(0, m, r, blob));
      }
    }
  }
}

TEST(ShuffleBytes, PacketBytesMatchesSerializedSizeKeyShapes) {
  const int64_t int_keys[] = {0, -1, 63, 64, -65, 1ll << 40,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()};
  for (const int64_t k : int_keys) {
    ExpectPacketBytesMatchSerialized(MakePacket<int64_t>(k, 3, 7, 16));
  }
  for (const std::string& k :
       {std::string(), std::string("a"), std::string(200, 'x')}) {
    ExpectPacketBytesMatchSerialized(MakePacket<std::string>(k, 3, 7, 16));
  }
}

TEST(ShufflePartition, RoutingIsDeterministicAndInRange) {
  SplitMix64 rng(11);
  for (const size_t parts : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    for (int i = 0; i < 200; ++i) {
      const int64_t key = static_cast<int64_t>(rng.Next());
      const size_t p = ShufflePartitionOf(key, parts);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, ShufflePartitionOf(key, parts)) << "unstable routing";
    }
    const std::string sk = "user-" + std::to_string(rng.Next());
    EXPECT_EQ(ShufflePartitionOf(sk, parts), ShufflePartitionOf(sk, parts));
    EXPECT_LT(ShufflePartitionOf(sk, parts), parts);
  }
}

TEST(ShufflePartition, AddAndAddBatchAgreeOnRoutingAndBytes) {
  SplitMix64 rng(23);
  std::vector<ShufflePacket<int64_t>> packets;
  for (int i = 0; i < 300; ++i) {
    packets.push_back(MakePacket<int64_t>(static_cast<int64_t>(rng.Below(40)),
                                          static_cast<uint32_t>(rng.Below(8)),
                                          rng.Next(), rng.Below(64)));
  }
  const size_t parts = 5;
  ShuffleBuffer<int64_t> one_by_one(parts);
  uint64_t expected_total = 0;
  for (const auto& p : packets) {
    auto copy = p;
    const uint64_t bytes = PacketBytes(copy);
    expected_total += bytes;
    one_by_one.Add(std::move(copy), bytes);
  }
  ShuffleBuffer<int64_t> batched(parts);
  auto batch = packets;
  EXPECT_EQ(batched.AddBatch(std::move(batch)), expected_total);

  uint64_t total_bytes = 0;
  for (size_t i = 0; i < parts; ++i) {
    EXPECT_EQ(one_by_one.partition(i).size(), batched.partition(i).size());
    EXPECT_EQ(one_by_one.partition_bytes(i), batched.partition_bytes(i));
    total_bytes += batched.partition_bytes(i);
    for (const auto& p : batched.partition(i)) {
      EXPECT_EQ(ShufflePartitionOf(p.key, parts), i) << "packet in wrong partition";
    }
  }
  EXPECT_EQ(total_bytes, expected_total);
  EXPECT_EQ(batched.total_packets(), packets.size());
}

// The ordering property behind Section 5.4: for every key, the partitioned
// shuffle (per-partition sort) must yield exactly the packet sequence the old
// global sort produced, for random packet sets and partition counts.
TEST(ShuffleOrderProperty, PartitionedOrderMatchesGlobalSort) {
  SplitMix64 rng(31);
  for (int round = 0; round < 10; ++round) {
    std::vector<ShufflePacket<int64_t>> packets;
    const size_t n = 50 + rng.Below(400);
    const int64_t key_space = 1 + static_cast<int64_t>(rng.Below(60));
    for (size_t i = 0; i < n; ++i) {
      packets.push_back(MakePacket<int64_t>(
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(key_space))),
          static_cast<uint32_t>(rng.Below(12)), rng.Below(1000), rng.Below(32)));
    }

    // Reference: the old design — one global sort, runs in key order.
    auto reference = packets;
    std::sort(reference.begin(), reference.end());
    std::map<int64_t, std::vector<std::pair<uint32_t, uint64_t>>> expected;
    for (const auto& p : reference) {
      expected[p.key].emplace_back(p.mapper_id, p.record_id);
    }

    for (const size_t parts :
         {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{16}}) {
      ShuffleBuffer<int64_t> shuffle(parts);
      auto batch = packets;
      shuffle.AddBatch(std::move(batch));
      std::map<int64_t, std::vector<std::pair<uint32_t, uint64_t>>> actual;
      std::map<int64_t, size_t> key_partition;
      for (size_t part = 0; part < parts; ++part) {
        auto& partition = shuffle.partition(part);
        std::sort(partition.begin(), partition.end());
        for (const auto& p : partition) {
          auto [it, inserted] = key_partition.emplace(p.key, part);
          EXPECT_EQ(it->second, part) << "key " << p.key << " split across partitions";
          actual[p.key].emplace_back(p.mapper_id, p.record_id);
        }
      }
      EXPECT_EQ(actual, expected) << "parts=" << parts << " round=" << round;
    }
  }
}

// Drives RunShuffleAndReduce directly: every key must be reduced exactly once
// with its full ordered run, under several partition/slot shapes, including
// slots > groups and partitions > groups.
TEST(ShuffleSchedule, EverySchedulePreservesRunsAndOrder) {
  SplitMix64 rng(47);
  std::vector<ShufflePacket<int64_t>> packets;
  for (int i = 0; i < 500; ++i) {
    packets.push_back(MakePacket<int64_t>(static_cast<int64_t>(rng.Below(17)),
                                          static_cast<uint32_t>(rng.Below(6)),
                                          rng.Below(500), rng.Below(48)));
  }
  auto reference = packets;
  std::sort(reference.begin(), reference.end());
  std::map<int64_t, std::vector<std::pair<uint32_t, uint64_t>>> expected;
  for (const auto& p : reference) {
    expected[p.key].emplace_back(p.mapper_id, p.record_id);
  }

  for (const size_t parts : {size_t{1}, size_t{4}, size_t{32}}) {
    for (const size_t slots : {size_t{1}, size_t{3}, size_t{8}}) {
      ShuffleBuffer<int64_t> shuffle(parts);
      auto batch = packets;
      shuffle.AddBatch(std::move(batch));
      std::mutex mu;
      std::map<int64_t, std::vector<std::pair<uint32_t, uint64_t>>> actual;
      EngineStats stats;
      internal::RunShuffleAndReduce<int64_t>(
          std::move(shuffle), slots,
          [&mu, &actual](const int64_t& key, const ShufflePacket<int64_t>* first,
                         const ShufflePacket<int64_t>* last) {
            std::vector<std::pair<uint32_t, uint64_t>> run;
            for (const auto* p = first; p != last; ++p) {
              run.emplace_back(p->mapper_id, p->record_id);
            }
            std::lock_guard<std::mutex> lock(mu);
            auto [it, inserted] = actual.emplace(key, std::move(run));
            EXPECT_TRUE(inserted) << "key " << key << " reduced twice";
          },
          &stats);
      EXPECT_EQ(actual, expected) << "parts=" << parts << " slots=" << slots;
      EXPECT_EQ(stats.groups, expected.size());
      EXPECT_EQ(stats.reduce_partitions, parts);
      EXPECT_GE(stats.partition_skew, 1.0);
      EXPECT_LE(stats.partition_skew, static_cast<double>(parts) + 1e-9);
    }
  }
}

TEST(ShuffleSchedule, EmptyShuffleReportsZeroSkew) {
  ShuffleBuffer<int64_t> shuffle(4);
  EngineStats stats;
  internal::RunShuffleAndReduce<int64_t>(
      std::move(shuffle), 3,
      [](const int64_t&, const ShufflePacket<int64_t>*,
         const ShufflePacket<int64_t>*) { FAIL() << "reduce on empty shuffle"; },
      &stats);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(stats.reduce_partitions, 4u);
  EXPECT_EQ(stats.partition_skew, 0.0);
}

// Empty and single-record datasets end-to-end through the threaded and forked
// engines, plus the cost model's groups=0 path.
TEST(ShuffleEdge, EmptyDatasetAllEngines) {
  const Dataset data = DatasetFromLines({{}, {}});
  const auto seq = RunSequential<MaxQuery>(data);
  const auto mr = RunBaselineMapReduce<MaxQuery>(data);
  const auto sym = RunSymple<MaxQuery>(data);
  const auto sym_forked = RunSympleForked<MaxQuery>(data);
  const auto mr_forked = RunBaselineForked<MaxQuery>(data);
  EXPECT_TRUE(seq.outputs.empty());
  EXPECT_TRUE(mr.outputs == seq.outputs);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_TRUE(sym_forked.outputs == seq.outputs);
  EXPECT_TRUE(mr_forked.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.groups, 0u);

  // groups=0 must not divide by zero or go negative in the cluster model.
  const LatencyBreakdown lat =
      EstimateLatency(sym.stats, ClusterConfig::AmazonEmr(10));
  EXPECT_GE(lat.map_s, 0.0);
  EXPECT_GE(lat.shuffle_s, 0.0);
  EXPECT_GE(lat.reduce_s, 0.0);
}

TEST(ShuffleEdge, SingleRecordAllEngines) {
  const Dataset data = DatasetFromLines({{"42"}});
  const auto seq = RunSequential<MaxQuery>(data);
  const auto mr = RunBaselineMapReduce<MaxQuery>(data);
  const auto sym = RunSymple<MaxQuery>(data);
  const auto sym_forked = RunSympleForked<MaxQuery>(data);
  const auto mr_forked = RunBaselineForked<MaxQuery>(data);
  ASSERT_EQ(seq.outputs.size(), 1u);
  EXPECT_EQ(seq.outputs.begin()->second, 42);
  EXPECT_TRUE(mr.outputs == seq.outputs);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_TRUE(sym_forked.outputs == seq.outputs);
  EXPECT_TRUE(mr_forked.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.groups, 1u);
}

// Partition-count sweeps must stay byte-identical to sequential, including
// with degraded segments crossing partitions (force_degrade sends every key
// run down the concrete-replay path).
TEST(ShuffleEquivalence, PartitionAndScheduleSweep) {
  GithubGenParams p;
  p.num_records = 4000;
  p.num_segments = 6;
  p.num_repos = 90;
  p.filler_bytes = 8;
  const Dataset data = GenerateGithubLog(p);
  const auto seq = RunSequential<G3PullWindowOps>(data);
  for (const size_t parts : {size_t{1}, size_t{3}, size_t{8}}) {
    EngineOptions options;
    options.reduce_partitions = parts;
    const auto mr = RunBaselineMapReduce<G3PullWindowOps>(data, options);
    const auto sym = RunSymple<G3PullWindowOps>(data, options);
    EXPECT_TRUE(mr.outputs == seq.outputs) << "baseline parts=" << parts;
    EXPECT_TRUE(sym.outputs == seq.outputs) << "symple parts=" << parts;
    EXPECT_EQ(sym.stats.reduce_partitions, parts);
  }
}

TEST(ShuffleEquivalence, DegradedSegmentsAcrossPartitions) {
  BingGenParams p;
  p.num_records = 4000;
  p.num_segments = 5;
  p.num_users = 80;
  p.filler_bytes = 8;
  const Dataset data = GenerateBingLog(p);
  const auto seq = RunSequential<B3UserSessions>(data);
  for (const size_t parts : {size_t{1}, size_t{4}, size_t{9}}) {
    EngineOptions options;
    options.reduce_partitions = parts;
    options.budgets.force_degrade = true;
    const auto sym = RunSymple<B3UserSessions>(data, options);
    EXPECT_TRUE(sym.outputs == seq.outputs) << "degraded parts=" << parts;
    EXPECT_GT(sym.stats.degraded_segments, 0u);
  }
}

TEST(ShuffleEquivalence, ForkedEnginesWithExplicitPartitions) {
  GithubGenParams p;
  p.num_records = 3000;
  p.num_segments = 4;
  p.num_repos = 60;
  p.filler_bytes = 8;
  const Dataset data = GenerateGithubLog(p);
  const auto seq = RunSequential<G1OnlyPushes>(data);
  EngineOptions options;
  options.reduce_partitions = 3;
  const auto sym = RunSympleForked<G1OnlyPushes>(data, options);
  const auto mr = RunBaselineForked<G1OnlyPushes>(data, options);
  EXPECT_TRUE(sym.outputs == seq.outputs);
  EXPECT_TRUE(mr.outputs == seq.outputs);
  EXPECT_EQ(sym.stats.reduce_partitions, 3u);
}

}  // namespace
}  // namespace symple
