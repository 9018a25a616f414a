#include "crypto/montgomery.h"

#include <gtest/gtest.h>

#include "crypto/secure_random.h"
#include "mont_backends.h"
#include "util/cpu_features.h"

namespace shuffledp {
namespace crypto {
namespace {

TEST(MontgomeryTest, RejectsBadModuli) {
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt()).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(1)).ok());
  EXPECT_FALSE(MontgomeryCtx::Create(BigInt(100)).ok());  // even
}

TEST(MontgomeryTest, RoundTripThroughMontgomeryForm) {
  SecureRandom rng(uint64_t{1});
  for (size_t bits : {64, 128, 512, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int trial = 0; trial < 5; ++trial) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      EXPECT_EQ(ctx->FromMont(ctx->ToMont(a)), a) << bits;
    }
  }
}

TEST(MontgomeryTest, MontMulMatchesModMul) {
  SecureRandom rng(uint64_t{2});
  for (size_t bits : {64, 192, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int trial = 0; trial < 8; ++trial) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      BigInt b = BigInt::RandomBelow(m, &rng);
      BigInt expected = a.ModMul(b, m);
      BigInt got =
          ctx->FromMont(ctx->MontMul(ctx->ToMont(a), ctx->ToMont(b)));
      EXPECT_EQ(got, expected) << "bits=" << bits;
    }
  }
}

TEST(MontgomeryTest, ModExpMatchesIteratedMultiplication) {
  SecureRandom rng(uint64_t{3});
  BigInt m = BigInt::RandomWithBits(256, &rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigInt a = BigInt::RandomBelow(m, &rng);
  BigInt expected(1);
  for (int i = 0; i < 37; ++i) expected = expected.ModMul(a, m);
  EXPECT_EQ(ctx->ModExp(a, BigInt(37)), expected);
}

TEST(MontgomeryTest, ModExpEdgeCases) {
  SecureRandom rng(uint64_t{4});
  BigInt m = BigInt::RandomWithBits(128, &rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigInt a = BigInt::RandomBelow(m, &rng);
  EXPECT_EQ(ctx->ModExp(a, BigInt()), BigInt(1));       // a^0 = 1
  EXPECT_EQ(ctx->ModExp(a, BigInt(1)), a);              // a^1 = a
  EXPECT_EQ(ctx->ModExp(BigInt(), BigInt(5)), BigInt()); // 0^5 = 0
}

TEST(MontgomeryTest, FermatLittleTheorem) {
  SecureRandom rng(uint64_t{5});
  BigInt p = BigInt::GeneratePrime(192, &rng);
  auto ctx = MontgomeryCtx::Create(p);
  ASSERT_TRUE(ctx.ok());
  for (int trial = 0; trial < 4; ++trial) {
    BigInt a = BigInt::RandomBelow(p.Sub(BigInt(2)), &rng).Add(BigInt(1));
    EXPECT_EQ(ctx->ModExp(a, p.Sub(BigInt(1))), BigInt(1));
  }
}

// BigInt::ModExp dispatches to Montgomery for odd moduli; both paths
// must agree (regression guard for the dispatch).
TEST(MontgomeryTest, BigIntModExpDispatchAgrees) {
  SecureRandom rng(uint64_t{6});
  BigInt m = BigInt::RandomWithBits(512, &rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  BigInt a = BigInt::RandomBelow(m, &rng);
  BigInt e = BigInt::RandomWithBits(256, &rng);
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(a.ModExp(e, m), ctx->ModExp(a, e));
}

// Division-based references, independent of every Montgomery kernel.
BigInt RefModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return a.Mul(b).Mod(m);
}

BigInt RefModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt acc(1);
  acc = acc.Mod(m);
  BigInt b = base.Mod(m);
  for (size_t i = exp.BitLength(); i-- > 0;) {
    acc = RefModMul(acc, acc, m);
    if (exp.GetBit(i)) acc = RefModMul(acc, b, m);
  }
  return acc;
}

// Randomized ModMul cross-check against the generic multiply+divide
// reference, over odd moduli of assorted (including non-limb-aligned)
// widths and edge operands: 0, 1, m-1, and operands >= m.
TEST(MontgomeryTest, ModMulMatchesReferenceRandomized) {
  SecureRandom rng(uint64_t{7});
  for (size_t bits : {65, 127, 192, 513, 1000, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    std::vector<BigInt> operands = {
        BigInt(),                     // 0
        BigInt(1),                    // 1
        m.Sub(BigInt(1)),             // m - 1
        m,                            // == m (reduces to 0)
        m.Add(BigInt(5)),             // > m
        m.Mul(BigInt(2)).Add(BigInt(3)),  // > 2m
    };
    for (int trial = 0; trial < 6; ++trial) {
      operands.push_back(BigInt::RandomBelow(m, &rng));
    }
    for (const BigInt& a : operands) {
      for (const BigInt& b : operands) {
        EXPECT_EQ(ctx->ModMul(a, b), RefModMul(a, b, m))
            << "bits=" << bits;
      }
    }
  }
}

// Randomized ModExp cross-check against binary square-and-multiply on
// the division path; covers the sliding-window width breakpoints and
// edge exponents/bases.
TEST(MontgomeryTest, ModExpMatchesReferenceRandomized) {
  SecureRandom rng(uint64_t{8});
  for (size_t bits : {65, 192, 513, 1024}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    std::vector<BigInt> bases = {BigInt(), BigInt(1), m.Sub(BigInt(1)),
                                 m.Add(BigInt(7)),
                                 BigInt::RandomBelow(m, &rng)};
    // Exponent sizes straddling every window-width breakpoint.
    std::vector<BigInt> exps = {BigInt(), BigInt(1), BigInt(2), BigInt(3),
                                m.Sub(BigInt(1))};
    for (size_t ebits : {16, 25, 81, 241, 700}) {
      exps.push_back(BigInt::RandomWithBits(ebits, &rng));
    }
    for (const BigInt& a : bases) {
      for (const BigInt& e : exps) {
        EXPECT_EQ(ctx->ModExp(a, e), RefModExp(a, e, m))
            << "bits=" << bits << " ebits=" << e.BitLength();
      }
    }
  }
}

// The dedicated squaring kernel must agree with the general multiply.
TEST(MontgomeryTest, MontSqrMatchesMontMul) {
  SecureRandom rng(uint64_t{9});
  for (size_t bits : {64, 127, 576, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int trial = 0; trial < 12; ++trial) {
      BigInt a = BigInt::RandomBelow(m, &rng);
      EXPECT_EQ(ctx->MontSqr(a), ctx->MontMul(a, a)) << "bits=" << bits;
    }
    EXPECT_EQ(ctx->MontSqr(BigInt()), BigInt());
    BigInt top = m.Sub(BigInt(1));
    EXPECT_EQ(ctx->MontSqr(top), ctx->MontMul(top, top));
  }
}

// Raw kernels with one reused scratch, in-place outputs, and mixed
// Mul/Sqr interleavings must match the BigInt wrappers.
TEST(MontgomeryTest, KernelScratchReuseAndAliasing) {
  SecureRandom rng(uint64_t{10});
  BigInt m = BigInt::RandomWithBits(1024, &rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  const size_t n = ctx->limbs();
  MontgomeryCtx::Scratch scratch(*ctx);

  BigInt a = BigInt::RandomBelow(m, &rng);
  BigInt b = BigInt::RandomBelow(m, &rng);
  std::vector<uint64_t> va(n), vb(n);
  ctx->ToMontInto(a, va.data(), &scratch);
  ctx->ToMontInto(b, vb.data(), &scratch);

  // ((a*b)^2 * a) with aliased outputs and a single scratch...
  std::vector<uint64_t> acc(n);
  ctx->MulInto(va.data(), vb.data(), acc.data(), &scratch);
  ctx->SqrInto(acc.data(), acc.data(), &scratch);
  ctx->MulInto(acc.data(), va.data(), acc.data(), &scratch);
  BigInt got = ctx->FromMontLimbs(acc.data(), &scratch);

  // ...against the BigInt-level wrappers.
  BigInt am = ctx->ToMont(a), bm = ctx->ToMont(b);
  BigInt expect = ctx->MontMul(am, bm);
  expect = ctx->MontSqr(expect);
  expect = ctx->MontMul(expect, am);
  EXPECT_EQ(got, ctx->FromMont(expect));

  // And against the plain-domain reference.
  BigInt ab = RefModMul(a, b, m);
  EXPECT_EQ(got, RefModMul(RefModMul(ab, ab, m), a, m));
}

// ---------------------------------------------------------------------------
// Interleaved batch kernels (MulManyInto / SqrManyInto / ToMontManyInto)
// ---------------------------------------------------------------------------

// Montgomery-domain operand sets with adversarial raw values: 0, 1, m-1
// (all valid residues), plus uniform randoms.
std::vector<std::vector<uint64_t>> MakeLaneOperands(const MontgomeryCtx& ctx,
                                                    size_t count,
                                                    SecureRandom* rng) {
  const size_t n = ctx.limbs();
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<std::vector<uint64_t>> lanes;
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint64_t> v(n, 0);
    switch (i % 4) {
      case 0:  // random residue in Montgomery form
        ctx.ToMontInto(BigInt::RandomBelow(ctx.modulus(), rng), v.data(),
                       &scratch);
        break;
      case 1:  // raw 0
        break;
      case 2:  // raw 1
        v[0] = 1;
        break;
      case 3: {  // raw m - 1
        BigInt top = ctx.modulus().Sub(BigInt(1));
        for (size_t w = 0; w < n; ++w) v[w] = top.limb(w);
        break;
      }
    }
    lanes.push_back(std::move(v));
  }
  return lanes;
}

// Every batch width from 1 through past kMaxBatchLanes, on every
// available backend, must be bitwise identical to k scalar MulInto calls.
TEST(MontgomeryBatchTest, MulManyBitwiseEqualsScalar) {
  SecureRandom rng(uint64_t{20});
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend pin(backend);
    for (size_t bits : {65, 127, 512, 1000, 2048}) {
      BigInt m = BigInt::RandomWithBits(bits, &rng);
      if (!m.IsOdd()) m = m.Add(BigInt(1));
      auto ctx = MontgomeryCtx::Create(m);
      ASSERT_TRUE(ctx.ok());
      const size_t n = ctx->limbs();
      MontgomeryCtx::Scratch scratch(*ctx);
      for (size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
        auto as = MakeLaneOperands(*ctx, k, &rng);
        auto bs = MakeLaneOperands(*ctx, k, &rng);
        std::vector<std::vector<uint64_t>> got(k, std::vector<uint64_t>(n));
        std::vector<const uint64_t*> ap(k), bp(k);
        std::vector<uint64_t*> op(k);
        for (size_t l = 0; l < k; ++l) {
          ap[l] = as[l].data();
          bp[l] = bs[l].data();
          op[l] = got[l].data();
        }
        ctx->MulManyInto(k, ap.data(), bp.data(), op.data(), &scratch);
        for (size_t l = 0; l < k; ++l) {
          std::vector<uint64_t> want(n);
          ctx->MulInto(as[l].data(), bs[l].data(), want.data(), &scratch);
          EXPECT_EQ(got[l], want)
              << MontBackendName(backend) << " bits=" << bits << " k=" << k
              << " lane=" << l;
        }
      }
    }
  }
}

TEST(MontgomeryBatchTest, SqrManyBitwiseEqualsScalar) {
  SecureRandom rng(uint64_t{21});
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend pin(backend);
    for (size_t bits : {65, 192, 513, 1024, 2048}) {
      BigInt m = BigInt::RandomWithBits(bits, &rng);
      if (!m.IsOdd()) m = m.Add(BigInt(1));
      auto ctx = MontgomeryCtx::Create(m);
      ASSERT_TRUE(ctx.ok());
      const size_t n = ctx->limbs();
      MontgomeryCtx::Scratch scratch(*ctx);
      for (size_t k : {1u, 2u, 3u, 4u, 6u, 8u, 11u}) {
        auto as = MakeLaneOperands(*ctx, k, &rng);
        std::vector<std::vector<uint64_t>> got(k, std::vector<uint64_t>(n));
        std::vector<const uint64_t*> ap(k);
        std::vector<uint64_t*> op(k);
        for (size_t l = 0; l < k; ++l) {
          ap[l] = as[l].data();
          op[l] = got[l].data();
        }
        ctx->SqrManyInto(k, ap.data(), op.data(), &scratch);
        for (size_t l = 0; l < k; ++l) {
          std::vector<uint64_t> want(n);
          ctx->SqrInto(as[l].data(), want.data(), &scratch);
          EXPECT_EQ(got[l], want)
              << MontBackendName(backend) << " bits=" << bits << " k=" << k
              << " lane=" << l;
        }
      }
    }
  }
}

TEST(MontgomeryBatchTest, ToMontManyBitwiseEqualsScalar) {
  SecureRandom rng(uint64_t{22});
  // 1024 bits has an IFMA kernel, 832 bits (13 limbs) does not.
  for (size_t bits : {1024, 832}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t n = ctx->limbs();
    const BigInt r = BigInt(1).ShiftLeft(64 * n);
    // Narrow values, values between m and R, values below R^2 that take
    // the division-free split (hi*R + lo, with all-ones halves), and one
    // above R^2 that still goes through BigInt::Mod.
    std::vector<BigInt> vals = {
        BigInt(), BigInt(1), m.Sub(BigInt(1)), m, m.Add(BigInt(9)),
        r.Sub(BigInt(1)), r, m.Mul(m), m.Mul(r), r.Mul(r).Sub(BigInt(1)),
        r.Mul(m).Sub(BigInt(1)), r.Mul(r).Add(BigInt(5))};
    while (vals.size() < 21) {
      vals.push_back(BigInt::RandomWithBits(64 * n + 1 + vals.size() * 40,
                                            &rng));
    }
    while (vals.size() < 29) vals.push_back(BigInt::RandomBelow(m, &rng));
    for (MontBackend backend : AvailableMontBackends()) {
      ScopedMontBackend pin(backend);
      MontgomeryCtx::Scratch scratch(*ctx);
      // 13 lanes: an 8-lane block plus a ragged tail; then all 29, whose
      // last block holds narrow values only.
      for (size_t k : {13u, 29u}) {
        std::vector<const BigInt*> vp(k);
        std::vector<std::vector<uint64_t>> got(k, std::vector<uint64_t>(n));
        std::vector<uint64_t*> op(k);
        for (size_t l = 0; l < k; ++l) {
          vp[l] = &vals[l];
          op[l] = got[l].data();
        }
        ctx->ToMontManyInto(k, vp.data(), op.data(), &scratch);
        for (size_t l = 0; l < k; ++l) {
          std::vector<uint64_t> want(n);
          ctx->ToMontInto(vals[l], want.data(), &scratch);
          EXPECT_EQ(got[l], want) << MontBackendName(backend) << " bits="
                                  << bits << " k=" << k << " lane=" << l;
        }
      }
    }
  }
}

// Adversarial lane mixing within the documented contract: one input
// buffer shared by every lane, plus in-place lanes (out[l] aliasing its
// own lane's inputs), with pairwise-distinct out pointers.
TEST(MontgomeryBatchTest, LaneMixingAliasedBatches) {
  SecureRandom rng(uint64_t{23});
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend pin(backend);
    BigInt m = BigInt::RandomWithBits(512, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t n = ctx->limbs();
    MontgomeryCtx::Scratch scratch(*ctx);

    const size_t k = 8;
    auto vals = MakeLaneOperands(*ctx, k, &rng);
    auto orig = vals;  // scalar reference computed from pristine copies

    // Every lane multiplies in place by one shared mask buffer (the
    // production rerandomize shape: out[l] == a[l], b shared).
    std::vector<uint64_t> mask = orig[0];
    std::vector<const uint64_t*> ap(k), bp(k);
    std::vector<uint64_t*> op(k);
    for (size_t l = 0; l < k; ++l) {
      ap[l] = vals[l].data();
      bp[l] = mask.data();
      op[l] = vals[l].data();
    }
    ctx->MulManyInto(k, ap.data(), bp.data(), op.data(), &scratch);
    for (size_t l = 0; l < k; ++l) {
      std::vector<uint64_t> want(n);
      ctx->MulInto(orig[l].data(), orig[0].data(), want.data(), &scratch);
      EXPECT_EQ(vals[l], want)
          << MontBackendName(backend) << " lane=" << l;
    }

    // All lanes reading the same single buffer, squared in place into
    // distinct outputs.
    std::vector<uint64_t> shared = orig[0];
    std::vector<std::vector<uint64_t>> outs(k, std::vector<uint64_t>(n));
    for (size_t l = 0; l < k; ++l) {
      ap[l] = shared.data();
      op[l] = outs[l].data();
    }
    ctx->SqrManyInto(k, ap.data(), op.data(), &scratch);
    std::vector<uint64_t> want(n);
    ctx->SqrInto(orig[0].data(), want.data(), &scratch);
    for (size_t l = 0; l < k; ++l) {
      EXPECT_EQ(outs[l], want) << MontBackendName(backend) << " lane=" << l;
    }
  }
}

// Forcing an unavailable backend must degrade silently, ifma -> avx2 ->
// portable, and every available backend must agree bitwise with
// portable on the same inputs.
TEST(MontgomeryBatchTest, BackendDispatchDegradesAndAgrees) {
  const CpuFeatures& f = KernelCpuFeatures();
  const MontBackend best =
      f.avx2 && f.avx512f && f.avx512ifma ? MontBackend::kIfma
      : f.avx2                            ? MontBackend::kAvx2
                                          : MontBackend::kPortable;
  EXPECT_EQ(BestMontBackend(), best);
  {
    ScopedMontBackend restore(ActiveMontBackend());
    EXPECT_EQ(SetMontBackend(MontBackend::kIfma), best);
    EXPECT_EQ(ActiveMontBackend(), best);
    EXPECT_EQ(SetMontBackend(MontBackend::kAvx2),
              best == MontBackend::kPortable ? MontBackend::kPortable
                                             : MontBackend::kAvx2);
    EXPECT_EQ(SetMontBackend(MontBackend::kPortable), MontBackend::kPortable);
  }
  EXPECT_STREQ(MontBackendName(MontBackend::kIfma), "ifma");
  EXPECT_STREQ(MontBackendName(MontBackend::kAvx2), "avx2");
  EXPECT_STREQ(MontBackendName(MontBackend::kPortable), "portable");

  SecureRandom rng(uint64_t{24});
  BigInt m = BigInt::RandomWithBits(2048, &rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  ASSERT_TRUE(ctx.ok());
  const size_t n = ctx->limbs();
  MontgomeryCtx::Scratch scratch(*ctx);
  const size_t k = 8;
  auto as = MakeLaneOperands(*ctx, k, &rng);
  auto bs = MakeLaneOperands(*ctx, k, &rng);
  std::vector<const uint64_t*> ap(k), bp(k);
  for (size_t l = 0; l < k; ++l) {
    ap[l] = as[l].data();
    bp[l] = bs[l].data();
  }
  auto run = [&](MontBackend backend) {
    ScopedMontBackend pin(backend);
    std::vector<std::vector<uint64_t>> o(k, std::vector<uint64_t>(n));
    std::vector<uint64_t*> op(k);
    for (size_t l = 0; l < k; ++l) op[l] = o[l].data();
    ctx->MulManyInto(k, ap.data(), bp.data(), op.data(), &scratch);
    return o;
  };
  const auto want = run(MontBackend::kPortable);
  for (MontBackend backend : AvailableMontBackends()) {
    EXPECT_EQ(run(backend), want) << MontBackendName(backend);
  }
}

// The IFMA tier against portable, lane for lane, at every width it has a
// kernel for (8, 16, 32, 48, 64 limbs): every batch entry point, lane
// counts around the 8-lane block, and the edge operands 0, 1 and m-1 in
// every pairing position (MakeLaneOperands cycles random, 0, 1, m-1).
TEST(MontgomeryBatchTest, IfmaMatchesPortableLaneForLane) {
  {
    ScopedMontBackend probe(MontBackend::kIfma);
    if (ActiveMontBackend() != MontBackend::kIfma) {
      GTEST_SKIP() << "no AVX-512 IFMA on this host";
    }
  }
  SecureRandom rng(uint64_t{29});
  for (size_t limbs : {8, 16, 32, 48, 64}) {
    // A full-width modulus and one a few bits short of the limb boundary.
    for (size_t bits : {64 * limbs, 64 * limbs - 5}) {
      BigInt m = BigInt::RandomWithBits(bits, &rng);
      if (!m.IsOdd()) m = m.Add(BigInt(1));
      auto ctx = MontgomeryCtx::Create(m);
      ASSERT_TRUE(ctx.ok());
      ASSERT_EQ(ctx->limbs(), limbs);
      const size_t n = limbs;
      MontgomeryCtx::Scratch scratch(*ctx);
      for (size_t k : {1u, 7u, 8u, 9u, 16u}) {
        auto as = MakeLaneOperands(*ctx, k, &rng);
        auto bs = MakeLaneOperands(*ctx, k + 1, &rng);
        bs.erase(bs.begin());  // shift the edge pattern against as
        std::vector<const uint64_t*> ap(k), bp(k);
        for (size_t l = 0; l < k; ++l) {
          ap[l] = as[l].data();
          bp[l] = bs[l].data();
        }
        const BigInt e = BigInt::RandomWithBits(20 + 20 * k, &rng);
        auto run = [&](MontBackend backend, int op) {
          ScopedMontBackend pin(backend);
          std::vector<std::vector<uint64_t>> o(k, std::vector<uint64_t>(n));
          std::vector<uint64_t*> outp(k);
          for (size_t l = 0; l < k; ++l) outp[l] = o[l].data();
          switch (op) {
            case 0:
              ctx->MulManyInto(k, ap.data(), bp.data(), outp.data(),
                               &scratch);
              break;
            case 1:
              ctx->SqrManyInto(k, ap.data(), outp.data(), &scratch);
              break;
            case 2:
              ctx->CtMulManyInto(k, ap.data(), bp.data(), outp.data(),
                                 &scratch);
              break;
            default:
              ctx->CtModExpManyInto(k, ap.data(), e, 0, outp.data(),
                                    &scratch);
              break;
          }
          return o;
        };
        for (int op = 0; op < 4; ++op) {
          const auto want = run(MontBackend::kPortable, op);
          const auto got = run(MontBackend::kIfma, op);
          for (size_t l = 0; l < k; ++l) {
            EXPECT_EQ(got[l], want[l])
                << "op=" << op << " bits=" << bits << " k=" << k
                << " lane=" << l;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Constant-time tier (CtMulInto / CtSqrInto / CtModExp / CtModExpManyInto)
// ---------------------------------------------------------------------------

// The ct kernels compute the same function as the variable-time ones;
// only the schedule differs. Outputs must be bitwise identical.
TEST(MontgomeryCtTest, CtMulAndSqrBitwiseEqualVariableTime) {
  SecureRandom rng(uint64_t{25});
  for (size_t bits : {65, 512, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t n = ctx->limbs();
    MontgomeryCtx::Scratch scratch(*ctx);
    auto ops = MakeLaneOperands(*ctx, 10, &rng);
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t j = 0; j < ops.size(); ++j) {
        std::vector<uint64_t> got(n), want(n);
        ctx->CtMulInto(ops[i].data(), ops[j].data(), got.data(), &scratch);
        ctx->MulInto(ops[i].data(), ops[j].data(), want.data(), &scratch);
        EXPECT_EQ(got, want) << "bits=" << bits;
      }
      std::vector<uint64_t> got(n), want(n);
      ctx->CtSqrInto(ops[i].data(), got.data(), &scratch);
      ctx->SqrInto(ops[i].data(), want.data(), &scratch);
      EXPECT_EQ(got, want) << "bits=" << bits;
      // In-place ct multiply (out aliases both inputs).
      std::vector<uint64_t> inplace = ops[i];
      ctx->CtMulInto(inplace.data(), inplace.data(), inplace.data(),
                     &scratch);
      EXPECT_EQ(inplace, want) << "bits=" << bits;
    }
  }
}

// CtModExp vs the division-based reference across the fixed-window
// breakpoints (<=24 -> 2, <=80 -> 3, <=240 -> 4, else 5) and edge
// bases/exponents, including exp_bits padding beyond BitLength.
TEST(MontgomeryCtTest, CtModExpMatchesReferenceAcrossWindowBreakpoints) {
  SecureRandom rng(uint64_t{26});
  for (size_t bits : {127, 512, 1024}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    std::vector<BigInt> bases = {BigInt(), BigInt(1), m.Sub(BigInt(1)),
                                 m.Add(BigInt(11)),
                                 BigInt::RandomBelow(m, &rng)};
    std::vector<BigInt> exps = {BigInt(), BigInt(1), BigInt(2)};
    for (size_t ebits : {5, 24, 25, 64, 80, 81, 240, 241, 600}) {
      exps.push_back(BigInt::RandomWithBits(ebits, &rng));
    }
    for (const BigInt& a : bases) {
      for (const BigInt& e : exps) {
        BigInt want = RefModExp(a, e, m);
        EXPECT_EQ(ctx->CtModExp(a, e), want)
            << "bits=" << bits << " ebits=" << e.BitLength();
        // Padding the schedule with high zero windows must not change
        // the value (it is exactly what hides the true bit length).
        EXPECT_EQ(ctx->CtModExp(a, e, e.BitLength() + 37), want)
            << "bits=" << bits << " ebits=" << e.BitLength() << " padded";
      }
    }
    // ct and variable-time tiers agree on a full-width secret-sized
    // exponent (the production decryption shape).
    BigInt a = BigInt::RandomBelow(m, &rng);
    BigInt e = m.Sub(BigInt(1));
    EXPECT_EQ(ctx->CtModExp(a, e), ctx->ModExp(a, e));
  }
}

// Batched ct exponentiation with a shared exponent: every lane must be
// bitwise identical to the one-lane CtModExp, for widths spanning lane
// blocks and ragged tails, on every backend. 768 bits (12 limbs) has no
// IFMA kernel; 1024 and 2048 bits run the radix-2^52 ladder on IFMA
// hosts, at exponent sizes that pick each window width 2 to 5.
TEST(MontgomeryCtTest, CtModExpManyBitwiseEqualsSingleLane) {
  SecureRandom rng(uint64_t{27});
  for (size_t bits : {768, 1024, 2048}) {
    BigInt m = BigInt::RandomWithBits(bits, &rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    auto ctx = MontgomeryCtx::Create(m);
    ASSERT_TRUE(ctx.ok());
    const size_t n = ctx->limbs();
    MontgomeryCtx::Scratch scratch(*ctx);
    for (size_t ebits : {20, 70, 200, 384}) {
      const BigInt e = BigInt::RandomWithBits(ebits, &rng);
      const size_t kmax = 10;
      std::vector<BigInt> bases = {BigInt(), BigInt(1), m.Sub(BigInt(1))};
      while (bases.size() < kmax) {
        bases.push_back(BigInt::RandomBelow(m, &rng));
      }
      std::vector<BigInt> want(kmax);
      std::vector<std::vector<uint64_t>> mont(kmax, std::vector<uint64_t>(n));
      for (size_t l = 0; l < kmax; ++l) {
        want[l] = ctx->CtModExp(bases[l], e);
        ctx->ToMontInto(bases[l], mont[l].data(), &scratch);
      }
      for (MontBackend backend : AvailableMontBackends()) {
        ScopedMontBackend pin(backend);
        for (size_t k : {1u, 3u, 8u, 10u}) {
          std::vector<const uint64_t*> bp(k);
          std::vector<uint64_t*> op(k);
          std::vector<std::vector<uint64_t>> got(k, std::vector<uint64_t>(n));
          for (size_t l = 0; l < k; ++l) {
            bp[l] = mont[l].data();
            op[l] = got[l].data();
          }
          ctx->CtModExpManyInto(k, bp.data(), e, 0, op.data(), &scratch);
          for (size_t l = 0; l < k; ++l) {
            EXPECT_EQ(ctx->FromMontLimbs(got[l].data(), &scratch), want[l])
                << MontBackendName(backend) << " bits=" << bits
                << " ebits=" << ebits << " k=" << k << " lane=" << l;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
