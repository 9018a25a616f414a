#include "util/hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace shuffledp {
namespace {

// Reference vectors from the xxHash specification / reference
// implementation test suite.
TEST(XxHash64Test, ReferenceVectors) {
  EXPECT_EQ(XxHash64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(XxHash64("a", 0), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(XxHash64("abc", 0), 0x44BC2CF5AD770999ULL);
}

TEST(XxHash32Test, ReferenceVectors) {
  EXPECT_EQ(XxHash32("", 0), 0x02CC5D05U);
  EXPECT_EQ(XxHash32("a", 0), 0x550D7456U);
  EXPECT_EQ(XxHash32("abc", 0), 0x32D153FFU);
}

TEST(XxHash64Test, SeedChangesOutput) {
  EXPECT_NE(XxHash64("abc", 0), XxHash64("abc", 1));
  EXPECT_NE(XxHash64("abc", 1), XxHash64("abc", 2));
}

TEST(XxHash64Test, AllLengthPathsConsistent) {
  // Exercise the <4, <8, <32 and >=32 byte code paths and check
  // prefix-sensitivity: flipping any byte changes the hash.
  std::string data(100, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 31 + 7);
  }
  for (size_t len : {0, 1, 3, 4, 7, 8, 15, 16, 31, 32, 33, 63, 64, 100}) {
    std::string s = data.substr(0, len);
    uint64_t h = XxHash64(s, 42);
    for (size_t i = 0; i < len; ++i) {
      std::string mutated = s;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
      EXPECT_NE(XxHash64(mutated, 42), h) << "len=" << len << " i=" << i;
    }
  }
}

// Byte-at-a-time reflected CRC-32 (IEEE polynomial 0xEDB88320), the
// textbook form every faster Crc32 must reproduce bit for bit.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFU;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Every length 0-257 at every start offset 0-7 walks the word loop's
// head, body and tail at each alignment.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf(257 + 8);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "offset=" << offset << " len=" << len;
      ASSERT_EQ(Crc32(p, len, 0x12345678U),
                ReferenceCrc32(p, len, 0x12345678U))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, SeedChainsAtEverySplit) {
  std::vector<uint8_t> buf(257);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split=" << split;
  }
}

TEST(UniversalHashTest, OutputInRange) {
  for (uint32_t range : {2u, 3u, 16u, 1000u}) {
    for (uint64_t v = 0; v < 200; ++v) {
      EXPECT_LT(UniversalHash(v, static_cast<uint32_t>(v * 7 + 1), range),
                range);
    }
  }
}

// The OLH/SOLH calibration (Eq. 3) requires Pr_seed[H(v) = H(v')] ~= 1/d'
// for v != v'. Verify the collision rate empirically.
TEST(UniversalHashTest, PairwiseCollisionRate) {
  const uint32_t kRange = 16;
  const int kSeeds = 50000;
  int collisions = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    uint32_t h1 = UniversalHash(12345, static_cast<uint32_t>(seed), kRange);
    uint32_t h2 = UniversalHash(67890, static_cast<uint32_t>(seed), kRange);
    collisions += (h1 == h2);
  }
  double rate = static_cast<double>(collisions) / kSeeds;
  double expected = 1.0 / kRange;
  double sigma = std::sqrt(expected * (1 - expected) / kSeeds);
  EXPECT_NEAR(rate, expected, 6 * sigma);
}

// Marginal uniformity: for a fixed value, the hash over random seeds is
// close to uniform over the range.
TEST(UniversalHashTest, MarginalUniformity) {
  const uint32_t kRange = 8;
  const int kSeeds = 80000;
  std::vector<int> counts(kRange, 0);
  for (int seed = 0; seed < kSeeds; ++seed) {
    ++counts[UniversalHash(99, static_cast<uint32_t>(seed), kRange)];
  }
  double expected = static_cast<double>(kSeeds) / kRange;
  double chi2 = 0;
  for (int c : counts) {
    double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 30.0);  // 7 dof, far beyond the 99.9% quantile
}

}  // namespace
}  // namespace shuffledp
