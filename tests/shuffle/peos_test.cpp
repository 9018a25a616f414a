#include "shuffle/peos.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "crypto/montgomery.h"
#include "tests/crypto/mont_backends.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"

namespace shuffledp {
namespace shuffle {
namespace {

std::vector<uint64_t> SkewedValues(uint64_t n, uint64_t d) {
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < n / 2) ? 0 : 1 + (i % (d - 1));
  }
  return values;
}

PeosConfig FastConfig(uint32_t r, uint64_t fakes) {
  PeosConfig config;
  config.num_shufflers = r;
  config.fake_reports = fakes;
  config.paillier_bits = 256;  // test-size keys
  config.use_randomizer_pool = true;
  return config;
}

TEST(PeosTest, EndToEndWithGrr) {
  const uint64_t n = 800, d = 8;
  ldp::Grr oracle(3.0, d);  // d = 8 is a power of two: padding-free
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{1});
  auto result = RunPeos(oracle, values, FastConfig(3, 200), &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_decoded, n + 200);
  EXPECT_EQ(result->reports_invalid, 0u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.15);
}

TEST(PeosTest, EndToEndWithGrrPaddedDomain) {
  // d = 6 is not a power of two: fake reports sometimes land in the
  // padding region [6, 8) and are dropped; the ordinal calibration keeps
  // the estimate unbiased.
  const uint64_t n = 800, d = 6;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{2});
  auto result = RunPeos(oracle, values, FastConfig(3, 400), &rng);
  ASSERT_TRUE(result.ok());
  // ~400 * 2/8 = 100 fakes dropped in expectation.
  EXPECT_GT(result->reports_invalid, 40u);
  EXPECT_LT(result->reports_invalid, 180u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.15);
}

TEST(PeosTest, EndToEndWithSolh) {
  const uint64_t n = 700, d = 100;
  ldp::LocalHash oracle(3.0, d, 8, "SOLH");  // d' = 8: padding-free
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{3});
  auto result = RunPeos(oracle, values, FastConfig(3, 150), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 150);
  EXPECT_EQ(result->reports_invalid, 0u);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.18);
}

TEST(PeosTest, ExactCryptoModeMatches) {
  const uint64_t n = 150, d = 4;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{4});
  PeosConfig config = FastConfig(2, 30);
  config.use_randomizer_pool = false;  // fresh modexp everywhere
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 30);
  EXPECT_NEAR(result->estimates[0], 0.5, 0.3);
}

TEST(PeosTest, SevenShufflers) {
  const uint64_t n = 120, d = 4;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{5});
  auto result = RunPeos(oracle, values, FastConfig(7, 20), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports_decoded, n + 20);
}

TEST(PeosTest, OneBiasedShufflerIsMaskedByHonestOnes) {
  // §VI-A2: a malicious shuffler biases its fake-report *shares*, but an
  // honest shuffler's uniform share keeps the reconstructed fake uniform.
  // With everyone holding value 0 and the poison targeting value 3, a
  // successful poison would inflate estimate[3]; masking keeps it ~0.
  const uint64_t n = 1000, d = 4;
  ldp::Grr oracle(4.0, d);
  std::vector<uint64_t> values(n, 0);
  crypto::SecureRandom rng(uint64_t{6});
  PeosConfig config = FastConfig(3, 500);
  config.behaviours = {PeosShufflerBehaviour::kBiasedFakeShares,
                       PeosShufflerBehaviour::kHonest,
                       PeosShufflerBehaviour::kHonest};
  config.poison_target_packed = 3;  // GRR ordinal of value 3
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->estimates[3], 0.1);
  EXPECT_NEAR(result->estimates[0], 1.0, 0.1);
}

TEST(PeosTest, AllShufflersBiasedDoesPoison) {
  // If *every* shuffler colludes on the bias there is no honest mask —
  // the known limit of the §VI-A2 argument (requires >= 1 honest party).
  const uint64_t n = 1000, d = 4;
  ldp::Grr oracle(4.0, d);
  std::vector<uint64_t> values(n, 0);
  crypto::SecureRandom rng(uint64_t{7});
  PeosConfig config = FastConfig(3, 500);
  config.behaviours.assign(3, PeosShufflerBehaviour::kBiasedFakeShares);
  // Shares sum to 3 * target; pick target so the sum hits value 3 mod 4.
  config.poison_target_packed = 1;  // 3 * 1 = 3 mod 4
  auto result = RunPeos(oracle, values, config, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->estimates[3], 0.3);
}

TEST(PeosTest, CostAccounting) {
  const uint64_t n = 200, d = 8;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  crypto::SecureRandom rng(uint64_t{8});
  auto result = RunPeos(oracle, values, FastConfig(3, 50), &rng);
  ASSERT_TRUE(result.ok());
  const CostReport& c = result->costs;
  EXPECT_GT(c.user_comp_ms_per_user, 0.0);
  // User upload: (r-1) * 8B shares + one 512-bit (64B) ciphertext.
  EXPECT_EQ(c.user_comm_bytes_per_user, 2 * 8 + 64u);
  EXPECT_GT(c.aux_comp_seconds, 0.0);
  EXPECT_GT(c.aux_comm_mb_per_shuffler, 0.0);
  EXPECT_GT(c.server_comp_seconds, 0.0);
  EXPECT_GT(c.server_comm_mb, 0.0);
}

// A fixed-seed PEOS round is a pure function of its inputs: the worker
// count (the user phase, the randomizer-pool build and the server
// pipeline all fan out over config.pool) and the Montgomery backend may
// change timing only. Every estimate is pinned bitwise to a golden.
TEST(PeosTest, EstimatesBitwiseIdenticalAcrossThreadCountsAndBackends) {
  const uint64_t n = 300, d = 8;
  ldp::Grr oracle(2.5, d);
  auto values = SkewedValues(n, d);
  PeosConfig config = FastConfig(3, 60);
  ASSERT_EQ(config.randomizer_pool_size, 64u);  // eight full 8-lane blocks

  // Bit patterns of the estimates at seed 10, and the ledger's byte
  // counts in MB, recorded before the pool build moved onto the batch
  // kernels and the thread pool.
  const std::vector<uint64_t> kGolden = {
      0x3fdf0e165bd4d4e4ULL, 0x3fb73795f565c748ULL, 0x3fa7036679304ca4ULL,
      0x3fb15ca498fef6cdULL, 0x3fb8ae524c7f7b66ULL, 0x3fbd128751cc97c3ULL,
      0x3fa7036679304ca4ULL, 0x3facde57d5971d1fULL};
  const double kGoldenAuxMb = 0.05035400390625;
  const double kGoldenServerMb = 0.0274658203125;

  using crypto::MontBackend;
  ThreadPool one(1), four(4);
  for (MontBackend backend : crypto::AvailableMontBackends()) {
    crypto::ScopedMontBackend scoped(backend);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      SCOPED_TRACE(std::string(crypto::MontBackendName(backend)) + " with " +
                   std::to_string(pool == nullptr ? 0 : pool->num_threads()) +
                   " workers");
      config.pool = pool;
      crypto::SecureRandom rng(uint64_t{10});
      auto result = RunPeos(oracle, values, config, &rng);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<uint64_t> bits(result->estimates.size());
      for (size_t v = 0; v < bits.size(); ++v) {
        std::memcpy(&bits[v], &result->estimates[v], sizeof(double));
      }
      EXPECT_EQ(bits, kGolden);
      EXPECT_EQ(result->reports_decoded, n + 60);
      const CostReport& c = result->costs;
      EXPECT_EQ(c.user_comm_bytes_per_user, 2 * 8 + 64u);
      EXPECT_EQ(c.aux_comm_mb_per_shuffler, kGoldenAuxMb);
      EXPECT_EQ(c.server_comm_mb, kGoldenServerMb);
    }
  }
}

TEST(PeosTest, RejectsBadConfig) {
  ldp::Grr oracle(1.0, 4);
  crypto::SecureRandom rng(uint64_t{9});
  PeosConfig config = FastConfig(1, 0);  // r < 2
  EXPECT_FALSE(RunPeos(oracle, {1, 2}, config, &rng).ok());
  config = FastConfig(3, 0);
  EXPECT_FALSE(RunPeos(oracle, {}, config, &rng).ok());
  config.ell = 1;  // smaller than the oracle's ordinal width
  EXPECT_FALSE(RunPeos(oracle, {1, 2}, config, &rng).ok());
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
