// Wire-hardening tests: every byte of the serialized artifacts that cross a
// process boundary (forked-engine frames, segment blobs, symbolic values) is
// bit-flipped and the readers must neither crash nor corrupt state — each
// flip is either detected (SympleWireError / checksum failure / degrade to
// concrete replay) or yields a well-formed value. Runs under the asan preset.
#include "runtime/process_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/text.h"
#include "core/symple.h"
#include "queries/text_row.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"
#include "serialize/checksum.h"

namespace symple {
namespace {

// Minimal "total value per account" query over lines "account<TAB>amount",
// used to produce golden segment blobs.
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

// --- checksum ---------------------------------------------------------------

TEST(WireHardening, Crc32KnownVector) {
  // The CRC-32/IEEE check value: crc("123456789") == 0xCBF43926.
  const char* v = "123456789";
  EXPECT_EQ(Crc32(v, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(v, 0), 0u);
}

TEST(WireHardening, Crc32ExtendChains) {
  const char* v = "123456789";
  uint32_t crc = Crc32(v, 4);
  crc = Crc32Extend(crc, v + 4, 5);
  EXPECT_EQ(crc, Crc32(v, 9));
}

// --- frame envelope ---------------------------------------------------------

std::vector<uint8_t> GoldenFrame() {
  BinaryWriter body;
  body.WriteVarUint(7);  // segment id
  body.WriteString("payload");
  BinaryWriter payload;
  internal::BuildWorkerFrame(internal::kFramePacket, body, &payload);
  return payload.buffer();
}

TEST(WireHardening, FrameEnvelopeRoundTrip) {
  const std::vector<uint8_t> frame = GoldenFrame();
  uint8_t type = 0;
  BinaryReader r = internal::ValidateWorkerFrame(frame, &type);
  EXPECT_EQ(type, internal::kFramePacket);
  EXPECT_EQ(r.ReadVarUint(), 7u);
  EXPECT_EQ(r.ReadString(), "payload");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireHardening, FrameEnvelopeDetectsEverySingleBitFlip) {
  // The CRC covers type, version, and body; a flip in the CRC field itself
  // mismatches the recomputed value. So no single-bit corruption anywhere in
  // the payload may pass validation.
  const std::vector<uint8_t> golden = GoldenFrame();
  for (size_t i = 0; i < golden.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> frame = golden;
      frame[i] ^= static_cast<uint8_t>(1u << bit);
      uint8_t type = 0;
      EXPECT_THROW(internal::ValidateWorkerFrame(frame, &type), SympleWireError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(WireHardening, FrameEnvelopeRejectsShortFrames) {
  const std::vector<uint8_t> golden = GoldenFrame();
  for (size_t len = 0; len < internal::kFrameEnvelopeBytes; ++len) {
    std::vector<uint8_t> frame(golden.begin(),
                               golden.begin() + static_cast<ptrdiff_t>(len));
    uint8_t type = 0;
    EXPECT_THROW(internal::ValidateWorkerFrame(frame, &type), SympleWireError);
  }
}

TEST(WireHardening, FrameEnvelopeRejectsVersionMismatch) {
  // A frame whose checksum is valid but whose version byte is from the
  // future must still be rejected — never parsed by guessing the layout.
  const uint8_t head[2] = {internal::kFrameStreamEnd,
                           internal::kForkedWireVersion + 1};
  const uint32_t crc = Crc32(head, sizeof(head));
  std::vector<uint8_t> frame;
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<uint8_t>(crc >> shift));
  }
  frame.push_back(head[0]);
  frame.push_back(head[1]);
  uint8_t type = 0;
  EXPECT_THROW(internal::ValidateWorkerFrame(frame, &type), SympleWireError);
}

// --- segment-done body ------------------------------------------------------

// A segment-done body with every shipped counter set to a distinct value.
std::vector<uint8_t> GoldenSegmentDone(obs::MapTaskObs* task) {
  uint64_t next = 1;
  internal::VisitSegmentCounters(*task, [&next](auto& v) { v = next++ * 300; });
  task->cpu_ms = 12.625;
  BinaryWriter body;
  internal::EncodeSegmentDone(41, *task, &body);
  return body.buffer();
}

TEST(WireHardening, SegmentDoneRoundTrip) {
  obs::MapTaskObs sent;
  const std::vector<uint8_t> body = GoldenSegmentDone(&sent);
  obs::MapTaskObs got;
  EXPECT_EQ(internal::DecodeSegmentDone(BinaryReader(body), &got), 41u);
  EXPECT_EQ(got.records, sent.records);
  EXPECT_EQ(got.parsed, sent.parsed);
  EXPECT_DOUBLE_EQ(got.cpu_ms, 12.625);
  EXPECT_EQ(got.summaries, sent.summaries);
  EXPECT_EQ(got.summary_paths, sent.summary_paths);
  EXPECT_EQ(got.exploration.runs, sent.exploration.runs);
  EXPECT_EQ(got.exploration.decisions, sent.exploration.decisions);
  EXPECT_EQ(got.exploration.paths_produced, sent.exploration.paths_produced);
  EXPECT_EQ(got.exploration.paths_merged, sent.exploration.paths_merged);
  EXPECT_EQ(got.exploration.merge_rounds, sent.exploration.merge_rounds);
  EXPECT_EQ(got.exploration.summary_restarts, sent.exploration.summary_restarts);
  EXPECT_EQ(got.exploration.live_path_peak, sent.exploration.live_path_peak);
  EXPECT_EQ(got.group_map.arena_bytes, sent.group_map.arena_bytes);
  EXPECT_EQ(got.group_map.rehashes, sent.group_map.rehashes);
  EXPECT_EQ(got.group_map.probe_lookups, sent.group_map.probe_lookups);
  EXPECT_EQ(got.group_map.probe_steps, sent.group_map.probe_steps);
}

TEST(WireHardening, SegmentDoneRejectsTruncationAndTrailingBytes) {
  obs::MapTaskObs sent;
  const std::vector<uint8_t> body = GoldenSegmentDone(&sent);
  // A short or long body is a protocol failure (retried), not wire
  // corruption (degraded): SympleIoError but never SympleWireError.
  const auto rejects_as_protocol = [](const std::vector<uint8_t>& bytes) {
    obs::MapTaskObs got;
    try {
      internal::DecodeSegmentDone(BinaryReader(bytes), &got);
    } catch (const SympleWireError&) {
      return false;
    } catch (const SympleIoError&) {
      return true;
    }
    return false;
  };
  for (size_t len = 0; len < body.size(); ++len) {
    const std::vector<uint8_t> prefix(body.begin(),
                                      body.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_TRUE(rejects_as_protocol(prefix)) << "prefix of " << len << " bytes";
  }
  std::vector<uint8_t> longer = body;
  longer.push_back(0);
  EXPECT_TRUE(rejects_as_protocol(longer));
}

// --- strict deserialize validation ------------------------------------------

TEST(WireHardening, ErrorHierarchy) {
  // Wire errors must be catchable both as I/O errors (transport layer) and
  // as the root SympleError (segment degrade layer).
  EXPECT_THROW(throw SympleWireError("x"), SympleIoError);
  EXPECT_THROW(throw SympleWireError("x"), SympleError);
  EXPECT_THROW(throw SympleOverflowError("x"), SympleError);
  EXPECT_THROW(throw SymplePathExplosionError("x"), SympleError);
  EXPECT_THROW(throw SympleUnsupportedOpError("x"), SympleError);
}

TEST(WireHardening, SymIntRejectsInvertedBounds) {
  // flags = 0: explicit a, b, lo, hi. lo > ub violates the canonical form.
  BinaryWriter w;
  w.WriteByte(0);
  w.WriteVarInt(2);  // a
  w.WriteVarInt(5);  // b
  w.WriteVarInt(9);  // lo
  w.WriteVarInt(3);  // hi < lo
  w.WriteVarUint(0);
  BinaryReader r(w.buffer());
  SymInt v;
  EXPECT_THROW(v.Deserialize(r), SympleWireError);

  // Control: the same encoding with lo <= hi parses.
  BinaryWriter ok;
  ok.WriteByte(0);
  ok.WriteVarInt(2);
  ok.WriteVarInt(5);
  ok.WriteVarInt(3);
  ok.WriteVarInt(9);
  ok.WriteVarUint(0);
  BinaryReader rok(ok.buffer());
  SymInt vok;
  vok.Deserialize(rok);
  EXPECT_EQ(vok.domain().lo, 3);
  EXPECT_EQ(vok.domain().hi, 9);
}

TEST(WireHardening, SymEnumRejectsBitsAboveDomain) {
  // A 3-value domain: any set bit >= bit 3 is outside it.
  BinaryWriter w;
  w.WriteByte(0x40);      // bound, c = 0
  w.WriteVarUint(0xFFu);  // set with bits above the domain
  w.WriteVarUint(0);
  BinaryReader r(w.buffer());
  SymEnum<uint32_t, 3> v;
  EXPECT_THROW(v.Deserialize(r), SympleWireError);

  BinaryWriter ok;
  ok.WriteByte(0x41);     // bound, c = 1
  ok.WriteVarUint(0x7u);  // full 3-value set
  ok.WriteVarUint(0);
  BinaryReader rok(ok.buffer());
  SymEnum<uint32_t, 3> vok;
  vok.Deserialize(rok);
  EXPECT_TRUE(vok.is_concrete());
}

TEST(WireHardening, ReaderRejectsTruncation) {
  BinaryWriter w;
  w.WriteString("hello");
  for (size_t len = 0; len < w.size(); ++len) {
    BinaryReader r(w.buffer().data(), len);
    EXPECT_THROW(r.ReadString(), SympleWireError);
  }
}

// --- golden segment blobs under exhaustive bit flips -------------------------

// Builds the golden symbolic segment blob the SYMPLE mapper ships for one
// small ledger segment.
struct GoldenSegment {
  Dataset data;
  internal::ShufflePacket<int64_t> packet;
};

GoldenSegment MakeGoldenSegment() {
  GoldenSegment g;
  g.data = DatasetFromLines({{"1\t5", "1\t-3", "1\t7"}});
  const EngineOptions options;
  obs::MapTaskObs ts;
  auto packets = internal::MapChunk(
      internal::SummariesBody<LedgerQuery>{g.data, options, 0}, g.data.segments[0], 0,
      /*first_record=*/0, &ts, /*budget=*/nullptr, /*shuffle=*/nullptr);
  EXPECT_EQ(packets.size(), 1u);
  g.packet = std::move(packets[0]);
  return g;
}

TEST(WireHardening, SegmentBlobSurvivesEverySingleBitFlip) {
  // Flip every bit of every byte of the golden blob and run it through the
  // reducer. No flip may crash or leak an exception: the packet either still
  // parses (a flip inside a value can produce a different well-formed
  // summary — only the transport checksum can catch that) or degrades to
  // concrete replay, which must reproduce the sequential result exactly.
  const GoldenSegment g = MakeGoldenSegment();
  ASSERT_GT(g.packet.blob.size(), 0u);
  size_t degraded = 0;
  size_t applied = 0;
  for (size_t i = 0; i < g.packet.blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      internal::ShufflePacket<int64_t> pkt = g.packet;
      pkt.blob[i] ^= static_cast<uint8_t>(1u << bit);
      internal::DegradeAccounting acct;
      LedgerState state{};
      ASSERT_NO_THROW(internal::SympleReduceKey<LedgerQuery>(
          g.data, ReduceMode::kSequentialFold, 1, &pkt, &pkt + 1, state, &acct))
          << "byte " << i << " bit " << bit;
      if (acct.degraded_segments > 0) {
        ++degraded;
        // Degrade means concrete replay of the original segment: the state
        // must be exactly the sequential one regardless of the corruption.
        EXPECT_EQ(state.total.Value(), 9);
        EXPECT_EQ(state.deposits.Value(), 2);
      } else {
        ++applied;
      }
    }
  }
  // Structural bytes (kind tag, counts, flags) must be caught.
  EXPECT_GT(degraded, 0u);
  // And the loop really covered both outcomes' bookkeeping.
  EXPECT_EQ(degraded + applied, g.packet.blob.size() * 8);
}

TEST(WireHardening, DeferredMarkerSurvivesEverySingleBitFlip) {
  // A corrupted DeferredConcrete marker must still replay (the marker's
  // content only affects the reported reason), so every flip yields the
  // exact sequential state.
  const GoldenSegment g = MakeGoldenSegment();
  internal::ShufflePacket<int64_t> marker = g.packet;
  marker.blob = internal::MakeDeferredBlob(0, DegradeReason::kForced, "golden");
  for (size_t i = 0; i < marker.blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      internal::ShufflePacket<int64_t> pkt = marker;
      pkt.blob[i] ^= static_cast<uint8_t>(1u << bit);
      internal::DegradeAccounting acct;
      LedgerState state{};
      ASSERT_NO_THROW(internal::SympleReduceKey<LedgerQuery>(
          g.data, ReduceMode::kSequentialFold, 1, &pkt, &pkt + 1, state, &acct))
          << "byte " << i << " bit " << bit;
      EXPECT_EQ(acct.degraded_segments, 1u);
      EXPECT_EQ(state.total.Value(), 9);
      EXPECT_EQ(state.deposits.Value(), 2);
    }
  }
}

TEST(WireHardening, TruncatedSegmentBlobDegrades) {
  const GoldenSegment g = MakeGoldenSegment();
  for (size_t len = 0; len < g.packet.blob.size(); ++len) {
    internal::ShufflePacket<int64_t> pkt = g.packet;
    pkt.blob.resize(len);
    internal::DegradeAccounting acct;
    LedgerState state{};
    ASSERT_NO_THROW(internal::SympleReduceKey<LedgerQuery>(
        g.data, ReduceMode::kSequentialFold, 1, &pkt, &pkt + 1, state, &acct))
        << "len " << len;
    EXPECT_EQ(acct.degraded_segments, 1u) << "len " << len;
    EXPECT_EQ(state.total.Value(), 9);
    EXPECT_EQ(state.deposits.Value(), 2);
  }
}

}  // namespace
}  // namespace symple
