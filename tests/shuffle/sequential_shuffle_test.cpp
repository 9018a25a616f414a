#include "shuffle/sequential_shuffle.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "tests/crypto/p256_backends.h"

namespace shuffledp {
namespace shuffle {
namespace {

std::vector<uint64_t> SkewedValues(uint64_t n, uint64_t d) {
  // Value 0 at 50%, the rest spread round-robin.
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < n / 2) ? 0 : 1 + (i % (d - 1));
  }
  return values;
}

TEST(SequentialShuffleTest, EndToEndEstimateIsAccurate) {
  const uint64_t n = 1500, d = 8;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  config.fake_reports_total = 300;
  crypto::SecureRandom rng(uint64_t{11});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_at_server, n + 300);
  ASSERT_EQ(result->estimates.size(), d);
  // At ε=3, n=1500, estimates should be within a few percent.
  EXPECT_NEAR(result->estimates[0], 0.5, 0.12);
  double sum = 0;
  for (double f : result->estimates) sum += f;
  EXPECT_NEAR(sum, 1.0, 0.25);
  EXPECT_TRUE(result->spot_check_passed);
}

TEST(SequentialShuffleTest, WorksWithLocalHashOracle) {
  const uint64_t n = 1200, d = 100;
  ldp::LocalHash oracle(3.0, d, 8);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 2;
  config.fake_reports_total = 120;
  crypto::SecureRandom rng(uint64_t{13});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimates[0], 0.5, 0.15);
}

TEST(SequentialShuffleTest, SpotCheckPassesWhenHonest) {
  const uint64_t n = 300, d = 4;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  config.spot_check_dummies = 20;
  crypto::SecureRandom rng(uint64_t{17});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->spot_check_passed);
  // Dummies are removed before estimation.
  EXPECT_EQ(result->reports_at_server, n);
}

TEST(SequentialShuffleTest, SpotCheckCatchesReportReplacement) {
  const uint64_t n = 300, d = 4;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  config.spot_check_dummies = 20;
  config.behaviours = {ShufflerBehaviour::kHonest,
                       ShufflerBehaviour::kReplaceReports,
                       ShufflerBehaviour::kHonest};
  config.poison_target_value = 2;
  crypto::SecureRandom rng(uint64_t{19});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->spot_check_passed);
  // The poisoned estimate is wildly skewed toward the target.
  EXPECT_GT(result->estimates[2], 0.8);
}

TEST(SequentialShuffleTest, BiasedFakesSkewTheEstimateUndetectably) {
  // The §VI-A1 weakness SS cannot fix: biased fake reports pass the spot
  // check but shift the histogram toward the target value.
  const uint64_t n = 1000, d = 4;
  ldp::Grr oracle(3.0, d);
  std::vector<uint64_t> values(n, 0);  // everyone holds 0
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  config.fake_reports_total = 600;
  config.spot_check_dummies = 20;
  config.behaviours = {ShufflerBehaviour::kBiasedFakes,
                       ShufflerBehaviour::kBiasedFakes,
                       ShufflerBehaviour::kBiasedFakes};
  config.poison_target_value = 3;
  crypto::SecureRandom rng(uint64_t{23});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->spot_check_passed);  // undetected!
  // De-bias assumes uniform fakes (150 per value); all 600 landed on 3:
  // the estimate of value 3 gains roughly (600 - 150)/n = 0.45.
  EXPECT_GT(result->estimates[3], 0.25);
}

TEST(SequentialShuffleTest, DroppedReportsShrinkServerCount) {
  const uint64_t n = 400, d = 4;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 2;
  config.behaviours = {ShufflerBehaviour::kDropReports,
                       ShufflerBehaviour::kHonest};
  crypto::SecureRandom rng(uint64_t{29});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_at_server, n / 2);
}

TEST(SequentialShuffleTest, CostsAreAccounted) {
  const uint64_t n = 200, d = 4;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  crypto::SecureRandom rng(uint64_t{31});
  auto result = RunSequentialShuffle(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  const CostReport& c = result->costs;
  EXPECT_GT(c.user_comp_ms_per_user, 0.0);
  EXPECT_GT(c.user_comm_bytes_per_user, 0u);
  EXPECT_GT(c.aux_comp_seconds, 0.0);
  EXPECT_GT(c.server_comm_mb, 0.0);
  // Onion: user blob must cover r+1 = 4 ECIES layers.
  EXPECT_GE(c.user_comm_bytes_per_user, 4 * 81u);
}

TEST(SequentialShuffleTest, UserCommGrowsWithShufflerCount) {
  const uint64_t n = 100, d = 4;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{37});
  uint64_t prev = 0;
  for (uint32_t r : {1u, 3u, 7u}) {
    SequentialShuffleConfig config;
    config.num_shufflers = r;
    auto result = RunSequentialShuffle(oracle, values, config, &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->costs.user_comm_bytes_per_user, prev);
    prev = result->costs.user_comm_bytes_per_user;
  }
}

TEST(SequentialShuffleTest, EstimatesBitwiseIdenticalAcrossThreadCounts) {
  const uint64_t n = 300, d = 16;
  ldp::LocalHash oracle(3.0, d, 8);
  auto values = SkewedValues(n, d);
  SequentialShuffleConfig config;
  config.num_shufflers = 3;
  config.fake_reports_total = 60;
  config.spot_check_dummies = 20;

  // Bit patterns of the estimates at seed 43, and the ledger's byte
  // counts, recorded before the recipient multiply moved onto the comb
  // table and the peels and server decrypt onto batched ECIES. They must
  // hold on every P-256 backend.
  const std::vector<uint64_t> kGolden = {
      0x3fdb55a0839fa866ULL, 0xbfa09bb9057135b6ULL, 0x3fb787461d0b0c17ULL,
      0x3fa09bb9057135b6ULL, 0x3fa09bb9057135b6ULL, 0x3fb8e9958829d091ULL,
      0x3fb624f6b1ec479dULL, 0x3fa8e9958829d091ULL, 0x3f9bae345e675984ULL,
      0xbf9624f6b1ec479dULL, 0x3f8624f6b1ec479dULL, 0x3f8624f6b1ec479dULL,
      0x3fb09bb9057135b6ULL, 0x3f7624f6b1ec479dULL, 0x3f9624f6b1ec479dULL,
      0x3f9bae345e675984ULL};
  const uint64_t kGoldenUserBytes = 427;
  const double kGoldenAuxMb = 0.07053375244140625;
  const double kGoldenServerMb = 0.040950775146484375;

  ThreadPool one(1), four(4);
  for (crypto::P256Backend backend : crypto::AvailableP256Backends()) {
    crypto::ScopedP256Backend scoped(backend);
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      SCOPED_TRACE(std::string(crypto::P256BackendName(backend)) + ", " +
                   std::to_string(pool == nullptr ? 0 : pool->num_threads()) +
                   " workers");
      config.pool = pool;
      crypto::SecureRandom rng(uint64_t{43});
      auto result = RunSequentialShuffle(oracle, values, config, &rng);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<uint64_t> bits(result->estimates.size());
      for (size_t v = 0; v < bits.size(); ++v) {
        std::memcpy(&bits[v], &result->estimates[v], sizeof(double));
      }
      EXPECT_EQ(bits, kGolden);
      EXPECT_TRUE(result->spot_check_passed);
      EXPECT_EQ(result->reports_at_server, n + 60);
      const CostReport& c = result->costs;
      EXPECT_EQ(c.user_comm_bytes_per_user, kGoldenUserBytes);
      EXPECT_EQ(c.aux_comm_mb_per_shuffler, kGoldenAuxMb);
      EXPECT_EQ(c.server_comm_mb, kGoldenServerMb);
    }
  }
}

TEST(SequentialShuffleTest, RejectsBadConfig) {
  ldp::Grr oracle(1.0, 4);
  crypto::SecureRandom rng(uint64_t{41});
  SequentialShuffleConfig config;
  config.num_shufflers = 0;
  EXPECT_FALSE(RunSequentialShuffle(oracle, {1, 2}, config, &rng).ok());
  config.num_shufflers = 2;
  EXPECT_FALSE(RunSequentialShuffle(oracle, {}, config, &rng).ok());
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
