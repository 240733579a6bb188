// Tree composition of map-side summaries, the shape a further-parallelized
// reduce would use (paper Section 3.6: function composition is associative).
// Shared by the tree-compose checks in test_engine_equivalence.cc and
// test_stress.cc.
#ifndef SYMPLE_TESTS_TREE_COMPOSE_H_
#define SYMPLE_TESTS_TREE_COMPOSE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/aggregator.h"
#include "runtime/engine.h"

namespace symple {

// Maps every segment with a SummariesBody (internal::MapChunk), composes each
// key's summaries from all segments, in input order, into one through
// ComposeAll, and applies it to the initial state. The outputs must equal
// RunSequential's. `composed` counts the summaries of keys that had two or
// more, so a caller can check that composition really ran.
template <typename Query>
std::map<typename Query::Key, typename Query::Output> TreeComposedOutputs(
    const Dataset& data, const EngineOptions& options, uint64_t* composed) {
  using State = typename Query::State;
  const internal::SummariesBody<Query> body{data, options, /*seg_hint=*/1024};
  std::map<typename Query::Key, std::vector<Summary<State>>> chains;
  for (uint32_t s = 0; s < data.segment_count(); ++s) {
    obs::MapTaskObs ts;
    const auto packets = internal::MapChunk(body, data.segments[s], s, /*first_record=*/0,
                                            &ts, /*budget=*/nullptr, /*shuffle=*/nullptr);
    for (const auto& p : packets) {
      BinaryReader r(p.blob.data(), p.blob.size());
      EXPECT_EQ(r.ReadByte(), internal::kSegmentSymbolic) << "a group degraded";
      std::vector<Summary<State>>& chain = chains[p.key];
      for (uint64_t n = r.ReadVarUint(); n > 0; --n) {
        chain.emplace_back().Deserialize(r);
      }
    }
  }
  std::map<typename Query::Key, typename Query::Output> outputs;
  *composed = 0;
  for (const auto& [key, chain] : chains) {
    State state{};
    EXPECT_TRUE(ComposeAll(chain).ApplyTo(state)) << "a composed summary rejected";
    if (chain.size() > 1) {
      *composed += chain.size();
    }
    outputs.emplace(key, Query::Result(state, key));
  }
  return outputs;
}

template <typename Query>
void ExpectTreeComposeMatchesSequential(const Dataset& data,
                                        const EngineOptions& options = {}) {
  uint64_t composed = 0;
  EXPECT_TRUE(TreeComposedOutputs<Query>(data, options, &composed) ==
              RunSequential<Query>(data).outputs)
      << Query::kName << ": tree composition diverged";
  EXPECT_GT(composed, 0u) << Query::kName << ": no key composed two summaries";
}

}  // namespace symple

#endif  // SYMPLE_TESTS_TREE_COMPOSE_H_
