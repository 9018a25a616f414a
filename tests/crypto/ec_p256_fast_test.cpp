// Cross-checks for the accelerated P-256 scalar-multiplication paths:
// the fixed-point comb (ScalarBaseMult on the generator's table,
// P256Precomputed on any other point's), the batched fixed-window
// variable-point path (ScalarMultBatch / ScalarMult), and the batched
// affine conversion, all validated against the retained double-and-add
// reference ladder. Every check runs once per backend (portable, IFMA);
// the IFMA instance skips on hosts without AVX-512 IFMA.

#include "crypto/ec_p256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/secure_random.h"
#include "p256_backends.h"

namespace shuffledp {
namespace crypto {
namespace {

Scalar256 OrderMinus(uint64_t d) {
  Scalar256 k = P256::Order();
  k[0] -= d;  // the low limb of n is far above any d used here
  return k;
}

Scalar256 OrderPlus(uint64_t d) {
  Scalar256 k = P256::Order();
  k[0] += d;  // no carry: low limb of n is well below 2^64-1
  return k;
}

// Includes n + 30, whose lowest Booth digit is 15: unreduced, the last
// fixed-window addition would be (n + 15) P + 15 P, a doubling the
// addition formula cannot do. The multiplies reduce scalars mod n first.
std::vector<Scalar256> EdgeScalars() {
  const Scalar256 all_ones = {~0ULL, ~0ULL, ~0ULL, ~0ULL};  // 2^256 - 1
  return {Scalar256{0, 0, 0, 0}, Scalar256{1, 0, 0, 0}, Scalar256{2, 0, 0, 0},
          OrderMinus(1), P256::Order(), OrderPlus(1), OrderPlus(30),
          all_ones};
}

// Keys around the width-5 Booth digit boundaries and at the top of the
// range, where the fixed-window schedule's first and last digits change
// sign or vanish.
std::vector<Scalar256> WindowKeys() {
  std::vector<Scalar256> keys;
  for (uint64_t k : {1, 2, 3, 15, 16, 17, 31, 32, 33}) {
    keys.push_back(Scalar256{k, 0, 0, 0});
  }
  keys.push_back(OrderMinus(2));
  keys.push_back(OrderMinus(1));
  return keys;
}

class P256FastTest : public ::testing::TestWithParam<P256Backend> {
 protected:
  void SetUp() override {
    if (SetP256Backend(GetParam()) != GetParam()) {
      SetP256Backend(saved_);
      GTEST_SKIP() << "host has no " << P256BackendName(GetParam())
                   << " P-256 backend";
    }
  }
  void TearDown() override { SetP256Backend(saved_); }

 private:
  const P256Backend saved_ = ActiveP256Backend();
};

TEST_P(P256FastTest, CombMatchesReferenceOnRandomScalars) {
  SecureRandom rng(uint64_t{101});
  for (int trial = 0; trial < 1000; ++trial) {
    Scalar256 k = P256::RandomScalar(&rng);
    P256Point fast = P256::ScalarBaseMult(k);
    P256Point ref = P256::ScalarBaseMultReference(k);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST_P(P256FastTest, CombMatchesReferenceOnEdgeScalars) {
  for (const Scalar256& k : EdgeScalars()) {
    EXPECT_EQ(P256::ScalarBaseMult(k), P256::ScalarBaseMultReference(k));
  }
  // n*G and 0*G are the point at infinity; (n+1)*G wraps to G.
  EXPECT_TRUE(P256::ScalarBaseMult(Scalar256{0, 0, 0, 0}).infinity);
  EXPECT_TRUE(P256::ScalarBaseMult(P256::Order()).infinity);
  EXPECT_EQ(P256::ScalarBaseMult(OrderPlus(1)), P256::Generator());
}

TEST_P(P256FastTest, ScalarMultMatchesReferenceOnRandomPoints) {
  SecureRandom rng(uint64_t{103});
  for (int trial = 0; trial < 200; ++trial) {
    P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
    Scalar256 k = P256::RandomScalar(&rng);
    P256Point fast = P256::ScalarMult(k, p);
    P256Point ref = P256::ScalarMultReference(k, p);
    ASSERT_EQ(fast, ref) << "trial " << trial;
    ASSERT_TRUE(P256::IsOnCurve(fast));
  }
}

TEST_P(P256FastTest, ScalarMultMatchesReferenceOnEdgeScalars) {
  SecureRandom rng(uint64_t{107});
  P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
  for (const Scalar256& k : EdgeScalars()) {
    EXPECT_EQ(P256::ScalarMult(k, p), P256::ScalarMultReference(k, p));
  }
  for (const Scalar256& k : WindowKeys()) {
    EXPECT_EQ(P256::ScalarMult(k, p), P256::ScalarMultReference(k, p))
        << "low limb " << k[0];
  }
  EXPECT_TRUE(P256::ScalarMult(P256::Order(), p).infinity);
}

TEST_P(P256FastTest, ScalarMultOfInfinityIsInfinity) {
  SecureRandom rng(uint64_t{109});
  P256Point inf;
  EXPECT_TRUE(P256::ScalarMult(P256::RandomScalar(&rng), inf).infinity);
}

TEST_P(P256FastTest, PrecomputedCombMatchesReferenceOnRandomPoints) {
  SecureRandom rng(uint64_t{113});
  for (int point = 0; point < 20; ++point) {
    P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
    P256Precomputed pre(p);
    EXPECT_EQ(pre.point(), p);
    std::vector<Scalar256> ks;
    for (int trial = 0; trial < 10; ++trial) {
      ks.push_back(P256::RandomScalar(&rng));
    }
    std::vector<P256Point> batch = pre.MultBatch(ks);
    ASSERT_EQ(batch.size(), ks.size());
    for (size_t i = 0; i < ks.size(); ++i) {
      const P256Point ref = P256::ScalarMultReference(ks[i], p);
      ASSERT_EQ(pre.Mult(ks[i]), ref) << "point " << point << " scalar " << i;
      ASSERT_EQ(batch[i], ref) << "point " << point << " scalar " << i;
    }
  }
}

// Each edge scalar at every lane position of a batch that spans one full
// 8-lane vector and a partial one.
TEST_P(P256FastTest, PrecomputedCombMatchesReferenceOnEdgeScalars) {
  SecureRandom rng(uint64_t{117});
  // The generator as a recipient must agree with its own static table.
  for (const P256Point& p : {P256::ScalarBaseMult(P256::RandomScalar(&rng)),
                             P256::Generator()}) {
    P256Precomputed pre(p);
    for (const Scalar256& k : EdgeScalars()) {
      const P256Point ref = P256::ScalarMultReference(k, p);
      EXPECT_EQ(pre.Mult(k), ref);
      for (size_t pos = 0; pos < 9; ++pos) {
        std::vector<Scalar256> ks;
        for (size_t i = 0; i < 9; ++i) ks.push_back(P256::RandomScalar(&rng));
        ks[pos] = k;
        std::vector<P256Point> batch = pre.MultBatch(ks);
        ASSERT_EQ(batch.size(), ks.size());
        ASSERT_EQ(batch[pos], ref) << "lane " << pos;
        ASSERT_EQ(batch[(pos + 1) % 9],
                  P256::ScalarMultReference(ks[(pos + 1) % 9], p))
            << "neighbour of lane " << pos;
      }
    }
    EXPECT_TRUE(pre.Mult(P256::Order()).infinity);
    EXPECT_EQ(pre.Mult(Scalar256{1, 0, 0, 0}), p);
  }
  P256Precomputed g(P256::Generator());
  for (int trial = 0; trial < 50; ++trial) {
    Scalar256 k = P256::RandomScalar(&rng);
    ASSERT_EQ(g.Mult(k), P256::ScalarBaseMult(k)) << trial;
  }
}

// Batch sizes around the 8-lane vector and the 64-blob chunk the SS
// protocol decrypts in, with infinity inputs at the head, middle and tail.
TEST_P(P256FastTest, ScalarMultBatchMatchesReference) {
  SecureRandom rng(uint64_t{119});
  for (size_t size : {0, 1, 7, 8, 9, 63, 64, 65}) {
    SCOPED_TRACE("batch of " + std::to_string(size));
    std::vector<P256Point> points;
    for (size_t i = 0; i < size; ++i) {
      const bool infinity = size > 1 && (i == 0 || i == size / 2 ||
                                         i + 1 == size);
      points.push_back(infinity
                           ? P256Point{}
                           : P256::ScalarBaseMult(P256::RandomScalar(&rng)));
    }
    std::vector<Scalar256> ks = {P256::RandomScalar(&rng),
                                 P256::RandomScalar(&rng)};
    if (size <= 9) {
      for (const Scalar256& k : EdgeScalars()) ks.push_back(k);
      for (const Scalar256& k : WindowKeys()) ks.push_back(k);
    }
    for (const Scalar256& k : ks) {
      std::vector<P256Point> batch = P256::ScalarMultBatch(k, points);
      ASSERT_EQ(batch.size(), size);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(batch[i], P256::ScalarMultReference(k, points[i]))
            << "index " << i << ", key low limb " << k[0];
      }
    }
  }
}

TEST_P(P256FastTest, PrecomputedInfinityPoint) {
  SecureRandom rng(uint64_t{127});
  P256Precomputed pre(P256Point{});
  EXPECT_TRUE(pre.Mult(P256::RandomScalar(&rng)).infinity);
  auto batch = pre.MultBatch({P256::RandomScalar(&rng), Scalar256{1, 0, 0, 0}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].infinity);
  EXPECT_TRUE(batch[1].infinity);
}

TEST_P(P256FastTest, BatchBaseMultMatchesPerPoint) {
  SecureRandom rng(uint64_t{131});
  std::vector<Scalar256> ks;
  for (int i = 0; i < 100; ++i) ks.push_back(P256::RandomScalar(&rng));
  // Interleave infinity-producing scalars to exercise the batch
  // normalization's infinity handling mid-run.
  ks.insert(ks.begin() + 7, Scalar256{0, 0, 0, 0});
  ks.insert(ks.begin() + 41, P256::Order());
  std::vector<P256Point> batch = P256::ScalarBaseMultBatch(ks);
  ASSERT_EQ(batch.size(), ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    ASSERT_EQ(batch[i], P256::ScalarBaseMult(ks[i])) << "index " << i;
  }
}

TEST_P(P256FastTest, BatchPrecomputedMatchesPerPoint) {
  SecureRandom rng(uint64_t{137});
  P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
  P256Precomputed pre(p);
  std::vector<Scalar256> ks;
  for (int i = 0; i < 60; ++i) ks.push_back(P256::RandomScalar(&rng));
  ks.push_back(P256::Order());  // infinity row at the tail
  std::vector<P256Point> batch = pre.MultBatch(ks);
  ASSERT_EQ(batch.size(), ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    ASSERT_EQ(batch[i], pre.Mult(ks[i])) << "index " << i;
  }
}

TEST_P(P256FastTest, EmptyBatches) {
  EXPECT_TRUE(P256::ScalarBaseMultBatch({}).empty());
  EXPECT_TRUE(P256::ScalarMultBatch(Scalar256{1, 0, 0, 0}, {}).empty());
  P256Precomputed pre(P256::Generator());
  EXPECT_TRUE(pre.MultBatch({}).empty());
}

TEST_P(P256FastTest, DiffieHellmanAgreementAcrossPaths) {
  // a * (b G) == b * (a G) with every fast path in play.
  SecureRandom rng(uint64_t{139});
  for (int trial = 0; trial < 20; ++trial) {
    Scalar256 a = P256::RandomScalar(&rng);
    Scalar256 b = P256::RandomScalar(&rng);
    P256Point ag = P256::ScalarBaseMult(a);
    P256Point bg = P256::ScalarBaseMult(b);
    P256Point shared1 = P256::ScalarMult(a, bg);
    P256Point shared2 = P256Precomputed(ag).Mult(b);
    ASSERT_EQ(shared1, shared2);
    ASSERT_EQ(shared1, P256::ScalarMultReference(a, bg));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, P256FastTest,
    ::testing::Values(P256Backend::kPortable, P256Backend::kIfma),
    [](const ::testing::TestParamInfo<P256Backend>& info) {
      return std::string(P256BackendName(info.param));
    });

// The IFMA kernels against the portable ones, lane for lane, on 1000
// random points (variable-point batch) and 1000 random scalars (comb).
TEST(P256BackendTest, IfmaMatchesPortableLaneForLane) {
  if (AvailableP256Backends().size() < 2) {
    GTEST_SKIP() << "host has no AVX-512 IFMA; portable-only";
  }
  SecureRandom rng(uint64_t{149});
  std::vector<P256Point> points;
  std::vector<Scalar256> ks;
  for (int i = 0; i < 1000; ++i) {
    points.push_back(P256::ScalarBaseMult(P256::RandomScalar(&rng)));
    ks.push_back(P256::RandomScalar(&rng));
  }
  const Scalar256 key = P256::RandomScalar(&rng);
  const P256Precomputed pre(points[0]);
  std::vector<P256Point> var[2], comb[2], base[2];
  const P256Backend backends[2] = {P256Backend::kPortable, P256Backend::kIfma};
  for (int b = 0; b < 2; ++b) {
    ScopedP256Backend scoped(backends[b]);
    ASSERT_EQ(ActiveP256Backend(), backends[b]);
    var[b] = P256::ScalarMultBatch(key, points);
    comb[b] = pre.MultBatch(ks);
    base[b] = P256::ScalarBaseMultBatch(ks);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(var[0][i], var[1][i]) << "point " << i;
    ASSERT_EQ(comb[0][i], comb[1][i]) << "scalar " << i;
    ASSERT_EQ(base[0][i], base[1][i]) << "scalar " << i;
  }
}

TEST(P256BackendTest, DispatchDegradesAndNames) {
  const P256Backend saved = ActiveP256Backend();
  EXPECT_EQ(SetP256Backend(P256Backend::kPortable), P256Backend::kPortable);
  EXPECT_EQ(ActiveP256Backend(), P256Backend::kPortable);
  // Requesting IFMA never fails: hosts without it fall back.
  const P256Backend got = SetP256Backend(P256Backend::kIfma);
  EXPECT_EQ(got, BestP256Backend());
  EXPECT_EQ(ActiveP256Backend(), got);
  SetP256Backend(saved);
  EXPECT_STREQ(P256BackendName(P256Backend::kPortable), "portable");
  EXPECT_STREQ(P256BackendName(P256Backend::kIfma), "ifma");
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
