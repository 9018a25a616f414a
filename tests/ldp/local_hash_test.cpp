#include "ldp/local_hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dp/amplification.h"
#include "ldp/estimator.h"
#include "util/stats.h"

namespace shuffledp {
namespace ldp {
namespace {

constexpr double kDelta = 1e-9;

TEST(LocalHashTest, ReportAlwaysInHashRange) {
  Rng rng(1);
  LocalHash lh(2.0, 1000, 16);
  for (int i = 0; i < 2000; ++i) {
    auto r = lh.Encode(static_cast<uint64_t>(i % 1000), &rng);
    EXPECT_LT(r.value, 16u);
  }
}

// d' = 5 pads the hash-value field to 3 bits: values 5..7 decode to
// nothing, whatever the seed bits above them. The message must fit
// std::string's inline buffer (no heap allocation per dropped padding
// row on the PEOS decode path).
TEST(LocalHashTest, PaddingOrdinalIsOutOfRange) {
  LocalHash lh(1.0, 64, 5);
  for (uint64_t value : {5u, 6u, 7u}) {
    const uint64_t ordinal = (uint64_t{12345} << 3) | value;
    auto rep = lh.UnpackOrdinal(ordinal);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kOutOfRange);
    EXPECT_LE(rep.status().message().size(), std::string().capacity());
  }
  EXPECT_TRUE(lh.UnpackOrdinal((uint64_t{12345} << 3) | 4).ok());
}

TEST(LocalHashTest, SupportsOwnValueWithProbabilityP) {
  Rng rng(2);
  LocalHash lh(2.0, 1000, 16);
  const int kTrials = 100000;
  int supported = 0;
  for (int i = 0; i < kTrials; ++i) {
    auto r = lh.Encode(123, &rng);
    supported += lh.Supports(r, 123);
  }
  double p = lh.support_probs().p_true;
  double sigma = std::sqrt(p * (1 - p) / kTrials);
  EXPECT_NEAR(static_cast<double>(supported) / kTrials, p, 6 * sigma);
}

TEST(LocalHashTest, SupportsOtherValueWithProbabilityOneOverDPrime) {
  Rng rng(3);
  const uint64_t d_prime = 8;
  LocalHash lh(2.0, 1000, d_prime);
  const int kTrials = 100000;
  int supported = 0;
  for (int i = 0; i < kTrials; ++i) {
    auto r = lh.Encode(123, &rng);
    supported += lh.Supports(r, 777);  // different value
  }
  double q = 1.0 / d_prime;
  double sigma = std::sqrt(q * (1 - q) / kTrials);
  EXPECT_NEAR(static_cast<double>(supported) / kTrials, q, 6 * sigma);
}

TEST(OlhFactoryTest, PicksExpEpsPlusOne) {
  auto olh = MakeOlh(std::log(3.0), 1000);  // e^ε = 3 → d' = 4
  EXPECT_EQ(olh->report_domain(), 4u);
  EXPECT_EQ(olh->Name(), "OLH");
}

TEST(OlhFactoryTest, ClampsToDomain) {
  auto olh = MakeOlh(5.0, 10);  // e^5+1 ~ 149 > d
  EXPECT_LE(olh->report_domain(), 10u);
}

TEST(SolhFactoryTest, UsesOptimalDPrimeAndAmplifiedEps) {
  const uint64_t n = 602325, d = 915;
  const double eps_c = 0.5;
  auto solh = MakeSolh(eps_c, n, d, kDelta);
  ASSERT_TRUE(solh.ok());
  EXPECT_EQ((*solh)->report_domain(), dp::OptimalSolhDPrime(eps_c, n, kDelta));
  // Local ε must exceed the central target (amplification achieved).
  EXPECT_GT((*solh)->epsilon_local(), eps_c);
  // And the forward bound must give back ε_c.
  auto fwd = dp::AmplifySolh((*solh)->epsilon_local(), n,
                             (*solh)->report_domain(), kDelta);
  EXPECT_NEAR(fwd.eps_c, eps_c, 1e-6);
}

TEST(SolhFactoryTest, RejectsBadArguments) {
  EXPECT_FALSE(MakeSolh(0.0, 1000, 10, kDelta).ok());
  EXPECT_FALSE(MakeSolh(0.5, 1, 10, kDelta).ok());
  EXPECT_FALSE(MakeSolhFixedDPrime(0.5, 1000, 10, 1, kDelta).ok());
}

TEST(SolhFactoryTest, FallsBackToLdpWhenNoAmplification) {
  // Tiny n: no amplification possible; ε_l = ε_c.
  auto solh = MakeSolh(0.5, 100, 10, kDelta);
  ASSERT_TRUE(solh.ok());
  EXPECT_DOUBLE_EQ((*solh)->epsilon_local(), 0.5);
}

TEST(PeosSolhFactoryTest, FakesGrowDPrimeAndLocalEps) {
  // §VI-C: with n_r fakes the optimal d' = ((b+n_r)/a + 2)/3 grows, and
  // the admissible local ε grows too (the blanket burden shifts to fakes).
  const uint64_t n = 602325, d = 915;
  const double eps_c = 0.5;
  auto plain = MakeSolh(eps_c, n, d, kDelta);
  auto peos = MakePeosSolh(eps_c, n, 100000, d, kDelta);
  ASSERT_TRUE(plain.ok() && peos.ok());
  EXPECT_GE((*peos)->report_domain(), (*plain)->report_domain());
  EXPECT_GE((*peos)->epsilon_local(), (*plain)->epsilon_local());
}

TEST(PeosSolhFactoryTest, ZeroFakesIsPlainSolh) {
  const uint64_t n = 602325, d = 915;
  auto a = MakeSolh(0.5, n, d, kDelta);
  auto b = MakePeosSolh(0.5, n, 0, d, kDelta);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->report_domain(), (*b)->report_domain());
  EXPECT_DOUBLE_EQ((*a)->epsilon_local(), (*b)->epsilon_local());
}

// Estimation is unbiased and matches the Eq. (4) variance.
TEST(LocalHashTest, EstimationUnbiasedWithPredictedVariance) {
  const uint64_t d = 50, d_prime = 8, n = 20000;
  const double eps = 2.0;
  LocalHash lh(eps, d, d_prime);
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = i % d;  // uniform data
  Rng rng(7);
  RunningStat est0;
  const int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<LdpReport> reports(n);
    for (uint64_t i = 0; i < n; ++i) reports[i] = lh.Encode(values[i], &rng);
    auto supports = SupportCounts(lh, reports, {0}, nullptr);
    auto f = CalibrateEstimates(lh, supports, n, 0);
    est0.Add(f[0]);
  }
  EXPECT_NEAR(est0.mean(), 1.0 / d, 6 * est0.stderr_mean());
  double predicted = dp::LocalHashVarianceLocal(eps, n, d_prime);
  EXPECT_NEAR(est0.variance(), predicted, 0.5 * predicted);
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
