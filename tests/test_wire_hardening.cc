// Wire-hardening tests: every byte of the serialized artifacts that cross a
// process boundary (frames, segment blobs, symbolic values) is bit-flipped
// and the readers must neither crash nor corrupt state — each flip is either
// detected (SympleWireError / checksum failure / degrade to concrete replay)
// or yields a well-formed value. The two frame readers, FrameDecoder and
// ReadFrame, must agree on every stream. Runs under the asan preset.
#include "runtime/process_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/text.h"
#include "core/symple.h"
#include "queries/text_row.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"
#include "runtime/spill.h"
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

// A real segment frame: the SYMPLE map task's packets for a small ledger
// segment with three accounts, and every shipped counter set to a distinct
// value. `payload` is the frame after its size field, as the readers return
// it.
struct GoldenSegmentFrame {
  obs::MapTaskObs task;
  std::vector<internal::ShufflePacket<int64_t>> packets;
  std::vector<uint8_t> body;
  std::vector<uint8_t> frame;
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  return std::vector<uint8_t>(frame.begin() + sizeof(uint32_t), frame.end());
}

GoldenSegmentFrame MakeGoldenSegmentFrame() {
  GoldenSegmentFrame g;
  const Dataset data = DatasetFromLines({{"1\t5", "2\t-3", "1\t7", "3\t4"}});
  const EngineOptions options;
  g.packets = internal::MapChunk(
      internal::SummariesBody<LedgerQuery>{data, options, 0}, data.segments[0], 0,
      /*first_record=*/0, &g.task, /*budget=*/nullptr, /*shuffle=*/nullptr);
  uint64_t next = 1;
  internal::VisitSegmentCounters(g.task, [&next](auto& v) { v = next++ * 300; });
  g.task.cpu_ms = 12.625;
  BinaryWriter body;
  internal::EncodeSegment(41, g.task, g.packets, &body);
  g.body = body.buffer();
  internal::EncodeFrame(internal::kFrameSegment, g.body, &g.frame);
  g.payload = PayloadOf(g.frame);
  return g;
}

TEST(WireHardening, FrameEnvelopeRoundTrip) {
  const GoldenSegmentFrame g = MakeGoldenSegmentFrame();
  EXPECT_EQ(g.frame.size(), g.body.size() + internal::kFrameEnvelopeBytes);
  uint8_t type = 0;
  BinaryReader r = internal::ValidateFrame(g.payload, &type);
  EXPECT_EQ(type, internal::kFrameSegment);
  EXPECT_EQ(r.remaining(), g.body.size());
}

TEST(WireHardening, FrameEnvelopeDetectsEverySingleBitFlip) {
  // The CRC covers type, version, and body; a flip in the CRC field itself
  // mismatches the recomputed value. So no single-bit corruption anywhere in
  // the payload may pass validation.
  const std::vector<uint8_t> golden = MakeGoldenSegmentFrame().payload;
  for (size_t i = 0; i < golden.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> payload = golden;
      payload[i] ^= static_cast<uint8_t>(1u << bit);
      uint8_t type = 0;
      EXPECT_THROW(internal::ValidateFrame(payload, &type), SympleWireError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(WireHardening, FrameEnvelopeRejectsShortFrames) {
  const std::vector<uint8_t> golden = MakeGoldenSegmentFrame().payload;
  for (size_t len = 0; len < internal::kFrameEnvelopeBytes - sizeof(uint32_t); ++len) {
    std::vector<uint8_t> payload(golden.begin(),
                                 golden.begin() + static_cast<ptrdiff_t>(len));
    uint8_t type = 0;
    EXPECT_THROW(internal::ValidateFrame(payload, &type), SympleWireError);
  }
}

TEST(WireHardening, FrameEnvelopeRejectsVersionMismatch) {
  // A frame whose checksum is valid but whose version byte is not the
  // current one must still be rejected — never parsed by guessing the
  // layout. That covers a version from the future, and the last pipe (4)
  // and spill (1) versions before the two carriers shared one frame.
  for (const uint8_t version : {uint8_t{internal::kWireVersion + 1}, uint8_t{4},
                                uint8_t{1}}) {
    const uint8_t head[2] = {internal::kFrameStreamEnd, version};
    const uint32_t crc = Crc32(head, sizeof(head));
    std::vector<uint8_t> payload;
    for (int shift = 0; shift < 32; shift += 8) {
      payload.push_back(static_cast<uint8_t>(crc >> shift));
    }
    payload.push_back(head[0]);
    payload.push_back(head[1]);
    uint8_t type = 0;
    EXPECT_THROW(internal::ValidateFrame(payload, &type), SympleWireError)
        << "version " << int{version};
  }
}

// --- the two frame readers --------------------------------------------------

// Every payload `bytes` holds, read one byte at a time through FrameDecoder.
// Each payload is copied out of the decoder before the next Feed.
std::vector<std::vector<uint8_t>> DecodeByteByByte(const std::vector<uint8_t>& bytes) {
  internal::FrameDecoder decoder;
  std::vector<std::vector<uint8_t>> payloads;
  std::span<const uint8_t> payload;
  for (const uint8_t b : bytes) {
    decoder.Feed(&b, 1);
    while (decoder.Next(&payload)) {
      payloads.emplace_back(payload.begin(), payload.end());
    }
  }
  return payloads;
}

// Every payload `bytes` holds, written to a file and read back with
// ReadFrame until a clean EOF.
std::vector<std::vector<uint8_t>> ReadFromFile(const std::vector<uint8_t>& bytes) {
  internal::TempDir dir("");
  internal::TempFile file(dir.path(), "stream");
  EXPECT_TRUE(internal::WriteAll(file.fd(), bytes.data(), bytes.size()));
  file.CloseFd();
  const internal::UniqueFd fd = internal::OpenRun(file.path());
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> payload;
  while (internal::ReadFrame(fd.get(), &payload)) {
    payloads.push_back(payload);
  }
  return payloads;
}

// A segment frame, a packets frame and a stream end, back to back.
std::vector<std::vector<uint8_t>> GoldenStreamFrames() {
  std::vector<std::vector<uint8_t>> frames(3);
  frames[0] = MakeGoldenSegmentFrame().frame;
  internal::EncodeFrame(internal::kFramePackets, {1, 2, 3, 4, 5}, &frames[1]);
  internal::EncodeFrame(internal::kFrameStreamEnd, {}, &frames[2]);
  return frames;
}

TEST(WireHardening, FrameReadersAgreeOnAStream) {
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> expected;
  for (const std::vector<uint8_t>& frame : GoldenStreamFrames()) {
    stream.insert(stream.end(), frame.begin(), frame.end());
    expected.push_back(PayloadOf(frame));
  }
  EXPECT_EQ(DecodeByteByByte(stream), expected);
  EXPECT_EQ(ReadFromFile(stream), expected);
  const std::vector<uint8_t> types = {internal::kFrameSegment, internal::kFramePackets,
                                      internal::kFrameStreamEnd};
  for (size_t i = 0; i < expected.size(); ++i) {
    uint8_t type = 0;
    internal::ValidateFrame(expected[i], &type);
    EXPECT_EQ(type, types[i]);
  }
}

TEST(WireHardening, FrameReadersRejectAnOversizedSizeField) {
  const uint32_t size = internal::kMaxFrameBytes + 1;
  std::vector<uint8_t> stream;
  for (int shift = 0; shift < 32; shift += 8) {
    stream.push_back(static_cast<uint8_t>(size >> shift));
  }
  stream.resize(stream.size() + 16, 0);
  internal::FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::span<const uint8_t> payload;
  EXPECT_THROW(decoder.Next(&payload), SympleIoError);
  EXPECT_THROW(ReadFromFile(stream), SympleIoError);
}

TEST(WireHardening, FrameReadersYieldNothingFromACutFrame) {
  // Every cut inside a frame: the decoder waits for bytes that never come,
  // and ReadFrame, which blocks until the end of the file, throws. A cut
  // before the first byte is a clean end of stream for both.
  for (const std::vector<uint8_t>& frame : GoldenStreamFrames()) {
    EXPECT_TRUE(DecodeByteByByte({}).empty());
    EXPECT_TRUE(ReadFromFile({}).empty());
    for (size_t len = 1; len < frame.size(); ++len) {
      const std::vector<uint8_t> cut(frame.begin(),
                                     frame.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_TRUE(DecodeByteByByte(cut).empty()) << "cut at " << len;
      EXPECT_THROW(ReadFromFile(cut), SympleWireError) << "cut at " << len;
    }
  }
}

// --- segment frame body -----------------------------------------------------

TEST(WireHardening, SegmentFrameRoundTrip) {
  const GoldenSegmentFrame g = MakeGoldenSegmentFrame();
  ASSERT_GE(g.packets.size(), 2u);
  uint8_t type = 0;
  obs::MapTaskObs got;
  std::vector<internal::ShufflePacket<int64_t>> packets;
  EXPECT_EQ(internal::DecodeSegment(internal::ValidateFrame(g.payload, &type),
                                    &got, &packets),
            41u);
  ASSERT_EQ(packets.size(), g.packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].key, g.packets[i].key);
    EXPECT_EQ(packets[i].mapper_id, g.packets[i].mapper_id);
    EXPECT_EQ(packets[i].record_id, g.packets[i].record_id);
    EXPECT_EQ(packets[i].blob, g.packets[i].blob);
  }
  const obs::MapTaskObs& sent = g.task;
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

TEST(WireHardening, SegmentFrameRejectsTruncationAndTrailingBytes) {
  const GoldenSegmentFrame g = MakeGoldenSegmentFrame();
  // A short or long body inside a valid envelope is a protocol failure
  // (retried), not wire corruption: SympleIoError but never SympleWireError.
  const auto rejects_as_protocol = [](const std::vector<uint8_t>& bytes) {
    std::vector<uint8_t> frame;
    internal::EncodeFrame(internal::kFrameSegment, bytes, &frame);
    const std::vector<uint8_t> payload = PayloadOf(frame);
    uint8_t type = 0;
    const BinaryReader r = internal::ValidateFrame(payload, &type);
    obs::MapTaskObs got;
    std::vector<internal::ShufflePacket<int64_t>> packets;
    try {
      internal::DecodeSegment(r, &got, &packets);
    } catch (const SympleWireError&) {
      return false;
    } catch (const SympleIoError&) {
      return true;
    }
    return false;
  };
  for (size_t len = 0; len < g.body.size(); ++len) {
    const std::vector<uint8_t> prefix(g.body.begin(),
                                      g.body.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_TRUE(rejects_as_protocol(prefix)) << "prefix of " << len << " bytes";
  }
  std::vector<uint8_t> longer = g.body;
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
          g.data, 1, &pkt, &pkt + 1, state, &acct))
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
          g.data, 1, &pkt, &pkt + 1, state, &acct))
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
        g.data, 1, &pkt, &pkt + 1, state, &acct))
        << "len " << len;
    EXPECT_EQ(acct.degraded_segments, 1u) << "len " << len;
    EXPECT_EQ(state.total.Value(), 9);
    EXPECT_EQ(state.deposits.Value(), 2);
  }
}

}  // namespace
}  // namespace symple
