#include "ldp/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "ldp/unary.h"
#include "util/hash.h"
#include "util/rng.h"

namespace shuffledp {
namespace ldp {
namespace {

TEST(WireTest, ScalarRoundTripGrr) {
  Grr grr(1.0, 915);  // 10-bit ordinals -> 2 bytes each
  EXPECT_EQ(WireReportBytes(grr), 2u);
  Rng rng(1);
  std::vector<LdpReport> reports;
  for (int i = 0; i < 200; ++i) {
    reports.push_back(grr.Encode(static_cast<uint64_t>(i) % 915, &rng));
  }
  Bytes wire = SerializeReports(grr, reports);
  EXPECT_LE(wire.size(), 200 * 2 + 10u);
  auto back = ParseReports(grr, wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, reports);
}

TEST(WireTest, ScalarRoundTripSolh) {
  LocalHash solh(3.0, 42178, 64, "SOLH");  // 32+6 bits -> 5 bytes
  EXPECT_EQ(WireReportBytes(solh), 5u);
  Rng rng(2);
  std::vector<LdpReport> reports;
  for (int i = 0; i < 100; ++i) {
    reports.push_back(solh.Encode(static_cast<uint64_t>(i * 37) % 42178,
                                  &rng));
  }
  Bytes wire = SerializeReports(solh, reports);
  auto back = ParseReports(solh, wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, reports);
}

TEST(WireTest, TruncatedPayloadRejected) {
  Grr grr(1.0, 16);
  Rng rng(3);
  Bytes wire = SerializeReports(grr, {grr.Encode(3, &rng)});
  wire.pop_back();
  EXPECT_FALSE(ParseReports(grr, wire).ok());
}

TEST(WireTest, OutOfRangeOrdinalRejected) {
  Grr grr(1.0, 10);  // ordinals 0..9 valid, 10..15 padding
  ByteWriter w;
  w.PutVarint(1);
  w.PutU8(12);  // padding-region ordinal
  EXPECT_FALSE(ParseReports(grr, w.Release()).ok());
}

TEST(WireTest, EmptyReportListRoundTrips) {
  Grr grr(1.0, 16);
  Bytes wire = SerializeReports(grr, {});
  auto back = ParseReports(grr, wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

// SerializeOrdinals bytes at 1-, 2-, 5- and 8-byte widths, byte for byte:
// varint count, then each ordinal big-endian in ceil(PackedBits/8)
// bytes. A long batch (two-byte count varint) is pinned by its length and
// hash. Padding-region ordinals are admitted.
struct OrdinalPin {
  const ScalarFrequencyOracle* oracle;
  std::vector<uint64_t> ordinals;
  std::string hex;
  size_t long_size;
  uint64_t long_hash;
};

std::vector<uint64_t> LongOrdinalBatch(const ScalarFrequencyOracle& o) {
  const unsigned bits = o.PackedBits();
  Rng rng(0x0DD5 + bits);
  std::vector<uint64_t> ordinals;
  for (int i = 0; i < 300; ++i) {
    ordinals.push_back(bits >= 64 ? rng.NextU64()
                                  : rng.UniformU64(uint64_t{1} << bits));
  }
  return ordinals;
}

TEST(WireTest, OrdinalCodecBytesArePinned) {
  Grr grr11(1.0, 11);                    // 4 bits -> 1 byte
  Grr grr1000(1.0, 1000);                // 10 bits -> 2 bytes
  LocalHash solh(1.0, 100, 64, "SOLH");  // 38 bits -> 5 bytes
  LocalHash wide(1.0, 100, uint64_t{1} << 32, "OLH");  // 64 -> 8 bytes
  const std::vector<OrdinalPin> pins = {
      {&grr11, {0, 3, 7, 10, 11, 15}, "060003070a0b0f", 302,
       0x7B5BFC13C3EC9CA2ULL},
      {&grr1000, {0, 1, 255, 256, 999, 1000, 1023},
       "070000000100ff010003e703e803ff", 602, 0x92732EAF24533A9AULL},
      {&solh, {0, 1, 0x2A12345678ULL, (uint64_t{1} << 38) - 1},
       "04000000000000000000012a123456783fffffffff", 1502,
       0xFE33513B153DD520ULL},
      {&wide, {0, 1, 0x0123456789ABCDEFULL, ~uint64_t{0}},
       "04000000000000000000000000000000010123456789abcdefffffffffffffffff",
       2402, 0x6D7BBAC6AA5789B1ULL},
  };
  const size_t widths[] = {1, 2, 5, 8};
  for (size_t k = 0; k < pins.size(); ++k) {
    const OrdinalPin& pin = pins[k];
    ASSERT_EQ(WireReportBytes(*pin.oracle), widths[k]);
    const Bytes wire = SerializeOrdinals(*pin.oracle, pin.ordinals);
    const Bytes long_wire =
        SerializeOrdinals(*pin.oracle, LongOrdinalBatch(*pin.oracle));
    EXPECT_EQ(ToHex(wire), pin.hex) << "width " << widths[k];
    EXPECT_EQ(long_wire.size(), pin.long_size) << "width " << widths[k];
    EXPECT_EQ(XxHash64(long_wire.data(), long_wire.size(), 0), pin.long_hash)
        << "width " << widths[k];
    auto back = ParseOrdinals(*pin.oracle, wire);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, pin.ordinals);
    auto long_back = ParseOrdinals(*pin.oracle, long_wire);
    ASSERT_TRUE(long_back.ok()) << long_back.status().ToString();
    EXPECT_EQ(*long_back, LongOrdinalBatch(*pin.oracle));
  }
}

TEST(WireTest, UnaryBitPackingRoundTrips) {
  for (uint64_t d : {1ull, 7ull, 8ull, 9ull, 100ull, 915ull}) {
    std::vector<uint8_t> bits(d);
    for (uint64_t i = 0; i < d; ++i) bits[i] = (i * 7 + 1) % 3 == 0;
    Bytes packed = PackUnaryBits(bits);
    EXPECT_EQ(packed.size(), (d + 7) / 8);
    auto back = UnpackUnaryBits(packed, d);
    ASSERT_TRUE(back.ok()) << d;
    EXPECT_EQ(*back, bits) << d;
  }
}

TEST(WireTest, UnaryPaddingMustBeZero) {
  Bytes packed = {0xFF};  // 8 bits set, but d = 5
  EXPECT_FALSE(UnpackUnaryBits(packed, 5).ok());
}

TEST(WireTest, UnaryWrongLengthRejected) {
  EXPECT_FALSE(UnpackUnaryBits(Bytes(2, 0), 100).ok());
}

TEST(WireTest, KosarakUnaryReportIsFiveKb) {
  // The §VII-B communication contrast: SOLH 8 B vs unary ~5 KB.
  UnaryEncoding rap(1.0, 42178, UnaryEncoding::Semantics::kReplacement);
  Rng rng(4);
  auto bits = rap.Encode(7, &rng);
  Bytes packed = PackUnaryBits(bits);
  EXPECT_EQ(packed.size(), 5273u);
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
