// Unit tests for the varint binary serialization substrate.
#include "serialize/binary_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace symple {
namespace {

TEST(Zigzag, KnownValues) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagDecode(ZigzagEncode(std::numeric_limits<int64_t>::min())),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ZigzagDecode(ZigzagEncode(std::numeric_limits<int64_t>::max())),
            std::numeric_limits<int64_t>::max());
}

TEST(BinaryIo, VarUintRoundTrip) {
  BinaryWriter w;
  const std::vector<uint64_t> values = {0,       1,      127,        128,
                                        16383,   16384,  0xFFFFFFFF, 1ull << 62,
                                        ~0ull};
  for (uint64_t v : values) {
    w.WriteVarUint(v);
  }
  BinaryReader r(w.buffer());
  for (uint64_t v : values) {
    EXPECT_EQ(r.ReadVarUint(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, VarUintEncodingIsCompact) {
  BinaryWriter w;
  w.WriteVarUint(0);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.WriteVarUint(127);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.WriteVarUint(128);
  EXPECT_EQ(w.size(), 2u);
  w.Clear();
  w.WriteVarUint(~0ull);
  EXPECT_EQ(w.size(), 10u);
}

TEST(BinaryIo, VarIntRoundTrip) {
  BinaryWriter w;
  const std::vector<int64_t> values = {0,  -1, 1,  63, -64, 64,
                                       -65, std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    w.WriteVarInt(v);
  }
  BinaryReader r(w.buffer());
  for (int64_t v : values) {
    EXPECT_EQ(r.ReadVarInt(), v);
  }
}

TEST(BinaryIo, SmallMagnitudeSignedValuesAreOneByte) {
  for (int64_t v : {-64, -1, 0, 1, 63}) {
    BinaryWriter w;
    w.WriteVarInt(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(BinaryIo, StringsAndBytes) {
  BinaryWriter w;
  w.WriteString("");
  w.WriteString("hello\tworld\n");
  const std::string big(10000, 'x');
  w.WriteString(big);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), "hello\tworld\n");
  EXPECT_EQ(r.ReadString(), big);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, FixedAndDouble) {
  BinaryWriter w;
  w.WriteFixed64(0x0123456789ABCDEFull);
  w.WriteDouble(3.141592653589793);
  w.WriteDouble(-0.0);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadFixed64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadDouble(), 3.141592653589793);
  EXPECT_EQ(r.ReadDouble(), -0.0);
}

TEST(BinaryIo, BoolAndByte) {
  BinaryWriter w;
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteByte(0xAB);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadBool());
  EXPECT_FALSE(r.ReadBool());
  EXPECT_EQ(r.ReadByte(), 0xAB);
}

TEST(BinaryIo, ReadPastEndThrows) {
  BinaryWriter w;
  w.WriteVarUint(5);
  BinaryReader r(w.buffer());
  r.ReadVarUint();
  EXPECT_THROW(r.ReadVarUint(), SympleError);
  EXPECT_THROW(r.ReadByte(), SympleError);
  EXPECT_THROW(r.ReadFixed64(), SympleError);
  EXPECT_THROW(r.ReadString(), SympleError);
}

TEST(BinaryIo, TruncatedVarintThrows) {
  std::vector<uint8_t> bytes = {0x80, 0x80};  // continuation bits, no end
  BinaryReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.ReadVarUint(), SympleError);
}

TEST(BinaryIo, OverlongVarintThrows) {
  // 11 bytes of continuation would exceed 64 bits.
  std::vector<uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  BinaryReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.ReadVarUint(), SympleError);
}

TEST(BinaryIo, TruncatedStringThrows) {
  BinaryWriter w;
  w.WriteVarUint(100);  // claims 100 bytes follow
  w.WriteByte('a');
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.ReadString(), SympleError);
}

TEST(BinaryIo, AdversarialHugeSizePrefixThrows) {
  // A length prefix near UINT64_MAX must not wrap the bounds check
  // (`pos_ + size` overflows; the check must compare against remaining()).
  BinaryWriter w;
  w.WriteVarUint(std::numeric_limits<uint64_t>::max());
  w.WriteByte('x');
  {
    BinaryReader r(w.buffer());
    EXPECT_THROW(r.ReadString(), SympleError);
  }
  // Same for a size that wraps exactly back into range: pos_ after the
  // 10-byte varint is 10, so size = 2^64 - 7 makes pos_ + size wrap to 3,
  // which is within the 13-byte buffer and would pass the old check.
  BinaryWriter w2;
  w2.WriteVarUint(std::numeric_limits<uint64_t>::max() - 6);
  w2.WriteByte('a');
  w2.WriteByte('b');
  w2.WriteByte('c');
  {
    BinaryReader r(w2.buffer());
    EXPECT_THROW(r.ReadString(), SympleError);
  }
}

TEST(BinaryIo, ReadBytesRoundTrip) {
  BinaryWriter w;
  const std::vector<uint8_t> blob = {0x00, 0xFF, 0x7F, 0x80, 0x01, 0xAB};
  w.WriteVarUint(blob.size());
  w.WriteBytes(blob.data(), blob.size());
  BinaryReader r(w.buffer());
  std::vector<uint8_t> out(r.ReadVarUint());
  r.ReadBytes(out.data(), out.size());
  EXPECT_EQ(out, blob);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, ReadBytesPastEndThrows) {
  BinaryWriter w;
  w.WriteByte('a');
  BinaryReader r(w.buffer());
  uint8_t buf[4];
  EXPECT_THROW(r.ReadBytes(buf, sizeof(buf)), SympleError);
  // Empty reads succeed anywhere, even at the end of the buffer.
  r.ReadByte();
  r.ReadBytes(nullptr, 0);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, RandomizedRoundTrip) {
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    BinaryWriter w;
    std::vector<int64_t> signed_vals;
    std::vector<uint64_t> unsigned_vals;
    for (int i = 0; i < 100; ++i) {
      const int64_t sv = static_cast<int64_t>(rng.Next());
      const uint64_t uv = rng.Next() >> (rng.Below(64));
      signed_vals.push_back(sv);
      unsigned_vals.push_back(uv);
      w.WriteVarInt(sv);
      w.WriteVarUint(uv);
    }
    BinaryReader r(w.buffer());
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(r.ReadVarInt(), signed_vals[static_cast<size_t>(i)]);
      EXPECT_EQ(r.ReadVarUint(), unsigned_vals[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

// --- u32-bounded fields (wire contract: frame lengths, segment/mapper ids) --------
//
// The forked engines frame everything with u32 sizes; a 64-bit varint that
// exceeds that range is corrupt or hostile and must throw, never truncate to
// the low 32 bits (which would silently mis-route packets or mis-size reads).

TEST(BinaryIo, ReadVarUint32AcceptsFullU32Range) {
  BinaryWriter w;
  w.WriteVarUint(0);
  w.WriteVarUint(127);
  w.WriteVarUint(1ULL << 31);
  w.WriteVarUint(UINT32_MAX);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadVarUint32(), 0u);
  EXPECT_EQ(r.ReadVarUint32(), 127u);
  EXPECT_EQ(r.ReadVarUint32(), 1u << 31);
  EXPECT_EQ(r.ReadVarUint32(), UINT32_MAX);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, ReadVarUint32RejectsValuesAboveU32) {
  for (const uint64_t value :
       {static_cast<uint64_t>(UINT32_MAX) + 1, uint64_t{1} << 40,
        uint64_t{UINT64_MAX}}) {
    BinaryWriter w;
    w.WriteVarUint(value);
    BinaryReader r(w.buffer());
    EXPECT_THROW(r.ReadVarUint32(), SympleWireError) << value;
    // The failed read must not have truncated: re-reading as u64 still works.
    BinaryReader r64(w.buffer());
    EXPECT_EQ(r64.ReadVarUint(), value);
  }
}

TEST(BinaryIo, ReadVarUint32ErrorIsAnIoError) {
  // The wire error must stay catchable at the SympleIoError granularity the
  // forked engines' worker-failure handling uses.
  BinaryWriter w;
  w.WriteVarUint(1ULL << 33);
  BinaryReader r(w.buffer());
  EXPECT_THROW(r.ReadVarUint32(), SympleIoError);
}

TEST(BinaryIo, U64BoundaryVarintsRoundTrip) {
  // Unsigned and signed extremes near the 2^32 and 2^63 boundaries.
  const uint64_t unsigned_values[] = {
      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 32) + 1,
      (1ULL << 63) - 1, 1ULL << 63, UINT64_MAX};
  const int64_t signed_values[] = {
      INT64_MIN, INT64_MIN + 1, -(1LL << 32), (1LL << 32), INT64_MAX - 1,
      INT64_MAX};
  BinaryWriter w;
  for (uint64_t v : unsigned_values) {
    w.WriteVarUint(v);
  }
  for (int64_t v : signed_values) {
    w.WriteVarInt(v);
  }
  BinaryReader r(w.buffer());
  for (uint64_t v : unsigned_values) {
    EXPECT_EQ(r.ReadVarUint(), v);
  }
  for (int64_t v : signed_values) {
    EXPECT_EQ(r.ReadVarInt(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, StringLengthNearU64MaxThrowsInsteadOfWrapping) {
  // A length prefix whose pos_ + size would wrap around uint64 must be
  // rejected by the remaining-bytes comparison, not read out of bounds.
  for (const uint64_t length : {uint64_t{UINT64_MAX}, uint64_t{UINT64_MAX} - 7,
                                static_cast<uint64_t>(UINT32_MAX) + 1}) {
    BinaryWriter w;
    w.WriteVarUint(length);
    w.WriteBytes("abcdefgh", 8);  // real payload far smaller than claimed
    BinaryReader r(w.buffer());
    EXPECT_THROW(r.ReadString(), SympleWireError) << length;
  }
}

}  // namespace
}  // namespace symple
