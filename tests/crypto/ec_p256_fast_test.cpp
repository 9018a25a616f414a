// Cross-checks for the accelerated P-256 scalar-multiplication paths:
// the fixed-point comb (ScalarBaseMult on the generator's table,
// P256Precomputed on any other point's), the batched width-5 wNAF
// variable-point path (ScalarMultBatch / ScalarMult), and the batched
// affine conversion, all validated against the retained double-and-add
// reference ladder.

#include "crypto/ec_p256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/secure_random.h"

namespace shuffledp {
namespace crypto {
namespace {

std::vector<Scalar256> EdgeScalars() {
  Scalar256 n = P256::Order();
  Scalar256 n_minus_1 = n;
  n_minus_1[0] -= 1;  // order is odd, no borrow
  Scalar256 n_plus_1 = n;
  n_plus_1[0] += 1;  // no carry: low limb of n is well below 2^64-1
  const Scalar256 all_ones = {~0ULL, ~0ULL, ~0ULL, ~0ULL};  // 2^256 - 1
  return {Scalar256{0, 0, 0, 0}, Scalar256{1, 0, 0, 0}, Scalar256{2, 0, 0, 0},
          n_minus_1, n, n_plus_1, all_ones};
}

TEST(P256FastTest, CombMatchesReferenceOnRandomScalars) {
  SecureRandom rng(uint64_t{101});
  for (int trial = 0; trial < 1000; ++trial) {
    Scalar256 k = P256::RandomScalar(&rng);
    P256Point fast = P256::ScalarBaseMult(k);
    P256Point ref = P256::ScalarBaseMultReference(k);
    ASSERT_EQ(fast, ref) << "trial " << trial;
  }
}

TEST(P256FastTest, CombMatchesReferenceOnEdgeScalars) {
  for (const Scalar256& k : EdgeScalars()) {
    EXPECT_EQ(P256::ScalarBaseMult(k), P256::ScalarBaseMultReference(k));
  }
  // n*G and 0*G are the point at infinity; (n+1)*G wraps to G.
  EXPECT_TRUE(P256::ScalarBaseMult(Scalar256{0, 0, 0, 0}).infinity);
  EXPECT_TRUE(P256::ScalarBaseMult(P256::Order()).infinity);
  Scalar256 n_plus_1 = P256::Order();
  n_plus_1[0] += 1;
  EXPECT_EQ(P256::ScalarBaseMult(n_plus_1), P256::Generator());
}

TEST(P256FastTest, ScalarMultMatchesReferenceOnRandomPoints) {
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

TEST(P256FastTest, ScalarMultMatchesReferenceOnEdgeScalars) {
  SecureRandom rng(uint64_t{107});
  P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
  for (const Scalar256& k : EdgeScalars()) {
    EXPECT_EQ(P256::ScalarMult(k, p), P256::ScalarMultReference(k, p));
  }
  EXPECT_TRUE(P256::ScalarMult(P256::Order(), p).infinity);
}

TEST(P256FastTest, ScalarMultOfInfinityIsInfinity) {
  SecureRandom rng(uint64_t{109});
  P256Point inf;
  EXPECT_TRUE(P256::ScalarMult(P256::RandomScalar(&rng), inf).infinity);
}

TEST(P256FastTest, PrecomputedCombMatchesReferenceOnRandomPoints) {
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

TEST(P256FastTest, PrecomputedCombMatchesReferenceOnEdgeScalars) {
  SecureRandom rng(uint64_t{117});
  // The generator as a recipient must agree with its own static table.
  for (const P256Point& p : {P256::ScalarBaseMult(P256::RandomScalar(&rng)),
                             P256::Generator()}) {
    P256Precomputed pre(p);
    const std::vector<Scalar256> edges = EdgeScalars();
    std::vector<P256Point> batch = pre.MultBatch(edges);
    ASSERT_EQ(batch.size(), edges.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Scalar256& k = edges[i];
      const P256Point ref = P256::ScalarMultReference(k, p);
      EXPECT_EQ(pre.Mult(k), ref) << "edge scalar " << i;
      EXPECT_EQ(batch[i], ref) << "edge scalar " << i;
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

// Batch sizes around the 64-blob chunk the SS protocol decrypts in, with
// infinity inputs mixed in at the head, middle and tail.
TEST(P256FastTest, ScalarMultBatchMatchesReference) {
  SecureRandom rng(uint64_t{119});
  for (size_t size : {0, 1, 2, 63, 64, 65}) {
    SCOPED_TRACE("batch of " + std::to_string(size));
    std::vector<P256Point> points;
    for (size_t i = 0; i < size; ++i) {
      const bool infinity = size > 1 && (i == 0 || i == size / 2 ||
                                         i + 1 == size);
      points.push_back(infinity
                           ? P256Point{}
                           : P256::ScalarBaseMult(P256::RandomScalar(&rng)));
    }
    std::vector<Scalar256> ks = {P256::RandomScalar(&rng)};
    if (size <= 2) {
      for (const Scalar256& k : EdgeScalars()) ks.push_back(k);
    }
    for (const Scalar256& k : ks) {
      std::vector<P256Point> batch = P256::ScalarMultBatch(k, points);
      ASSERT_EQ(batch.size(), size);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(batch[i], P256::ScalarMultReference(k, points[i]))
            << "index " << i;
      }
    }
  }
}

TEST(P256FastTest, PrecomputedInfinityPoint) {
  SecureRandom rng(uint64_t{127});
  P256Precomputed pre(P256Point{});
  EXPECT_TRUE(pre.Mult(P256::RandomScalar(&rng)).infinity);
  auto batch = pre.MultBatch({P256::RandomScalar(&rng), Scalar256{1, 0, 0, 0}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].infinity);
  EXPECT_TRUE(batch[1].infinity);
}

TEST(P256FastTest, BatchBaseMultMatchesPerPoint) {
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

TEST(P256FastTest, BatchPrecomputedMatchesPerPoint) {
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

TEST(P256FastTest, EmptyBatches) {
  EXPECT_TRUE(P256::ScalarBaseMultBatch({}).empty());
  EXPECT_TRUE(P256::ScalarMultBatch(Scalar256{1, 0, 0, 0}, {}).empty());
  P256Precomputed pre(P256::Generator());
  EXPECT_TRUE(pre.MultBatch({}).empty());
}

TEST(P256FastTest, DiffieHellmanAgreementAcrossPaths) {
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

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
