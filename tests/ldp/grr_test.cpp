#include "ldp/grr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ldp/estimator.h"
#include "util/stats.h"

namespace shuffledp {
namespace ldp {
namespace {

TEST(GrrTest, ProbabilitiesSatisfyLdpRatio) {
  for (double eps : {0.5, 1.0, 4.0}) {
    for (uint64_t d : {2ull, 10ull, 915ull}) {
      Grr grr(eps, d);
      EXPECT_NEAR(grr.p() / grr.q(), std::exp(eps), 1e-9) << eps << " " << d;
      // p + (d-1) q == 1.
      EXPECT_NEAR(grr.p() + (d - 1) * grr.q(), 1.0, 1e-9);
    }
  }
}

TEST(GrrTest, EncodeKeepsValueWithProbabilityP) {
  Rng rng(1);
  Grr grr(1.0, 10);
  const int kTrials = 100000;
  int kept = 0;
  for (int i = 0; i < kTrials; ++i) kept += (grr.Encode(3, &rng).value == 3);
  double sigma = std::sqrt(grr.p() * (1 - grr.p()) / kTrials);
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, grr.p(), 6 * sigma);
}

TEST(GrrTest, EncodeOtherValuesUniform) {
  Rng rng(2);
  Grr grr(1.0, 5);
  const int kTrials = 200000;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < kTrials; ++i) ++counts[grr.Encode(0, &rng).value];
  // Values 1..4 should each appear with probability q.
  for (int v = 1; v < 5; ++v) {
    double rate = static_cast<double>(counts[v]) / kTrials;
    double sigma = std::sqrt(grr.q() * (1 - grr.q()) / kTrials);
    EXPECT_NEAR(rate, grr.q(), 6 * sigma) << v;
  }
}

TEST(GrrTest, ReportsAlwaysInDomain) {
  Rng rng(3);
  Grr grr(0.5, 7);
  for (int i = 0; i < 1000; ++i) {
    auto r = grr.Encode(static_cast<uint64_t>(i % 7), &rng);
    EXPECT_LT(r.value, 7u);
    EXPECT_TRUE(grr.ValidateReport(r).ok());
  }
}

TEST(GrrTest, ValidateRejectsOutOfRange) {
  Grr grr(1.0, 7);
  LdpReport bad;
  bad.value = 7;
  EXPECT_EQ(grr.ValidateReport(bad).code(), StatusCode::kOutOfRange);
}

// d = 6 pads its ordinal space to 8: ordinals 6 and 7 decode to nothing.
// The message must fit std::string's inline buffer (no heap allocation
// per dropped padding row on the PEOS decode path).
TEST(GrrTest, PaddingOrdinalIsOutOfRange) {
  Grr grr(1.0, 6);
  for (uint64_t ordinal : {6u, 7u}) {
    auto rep = grr.UnpackOrdinal(ordinal);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kOutOfRange);
    EXPECT_LE(rep.status().message().size(), std::string().capacity());
  }
  EXPECT_TRUE(grr.UnpackOrdinal(5).ok());
}

TEST(GrrTest, FakeReportsAreUniform) {
  Rng rng(4);
  Grr grr(1.0, 4);
  const int kTrials = 80000;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kTrials; ++i) ++counts[grr.MakeFakeReport(&rng).value];
  for (int c : counts) EXPECT_NEAR(c, kTrials / 4.0, 6 * std::sqrt(20000.0));
}

TEST(GrrTest, SupportProbsTriple) {
  Grr grr(2.0, 10);
  auto sp = grr.support_probs();
  EXPECT_DOUBLE_EQ(sp.p_true, grr.p());
  EXPECT_DOUBLE_EQ(sp.q_other, grr.q());
  EXPECT_DOUBLE_EQ(sp.q_fake, 0.1);
}

TEST(GrrTest, PackUnpackRoundTrip) {
  LdpReport r{0xDEADBEEFu, 0x1234u};
  EXPECT_EQ(UnpackReport(PackReport(r)), r);
}

// End-to-end estimation: encode a skewed dataset, estimate, check
// unbiasedness and variance against Wang et al.'s formula.
TEST(GrrTest, EstimationUnbiasedWithPredictedVariance) {
  const uint64_t d = 8, n = 20000;
  const double eps = 1.0;
  Grr grr(eps, d);
  // Dataset: value 0 has frequency 0.5, rest uniform.
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < n / 2) ? 0 : 1 + (i % (d - 1));
  }
  Rng rng(5);
  RunningStat est0;
  const int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<LdpReport> reports(n);
    for (uint64_t i = 0; i < n; ++i) reports[i] = grr.Encode(values[i], &rng);
    auto f = EstimateFrequencies(grr, reports, n);
    ASSERT_EQ(f.size(), d);
    est0.Add(f[0]);
  }
  EXPECT_NEAR(est0.mean(), 0.5, 6 * est0.stderr_mean());
  // Variance of f~_0 at f=0.5: q(1-q)/(n(p-q)^2) + f(1-p-q)/(n(p-q)).
  double p = grr.p(), q = grr.q();
  double predicted = q * (1 - q) / (n * (p - q) * (p - q)) +
                     0.5 * (1 - p - q) / (n * (p - q));
  EXPECT_NEAR(est0.variance(), predicted, 0.45 * predicted);
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
