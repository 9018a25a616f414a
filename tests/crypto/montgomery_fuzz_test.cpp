// Property-based fuzz loop for MontgomeryCtx: random operation
// sequences (scalar, batch, and constant-time kernels, random aliasing
// within the documented contract, one shared Scratch, random backend
// flips) executed against a plain-domain BigInt shadow model, with
// every touched buffer cross-checked through the division-based
// reference after each step.
//
// Replayable: the seed is printed at startup and can be pinned with
// SHUFFLEDP_FUZZ_SEED. Iteration count is controlled with
// SHUFFLEDP_FUZZ_ITERS; each iteration is one modulus plus a bounded
// op sequence. The loop is additionally time-boxed so CI latency stays
// flat even if iterations are cranked up locally.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/montgomery.h"
#include "crypto/secure_random.h"
#include "mont_backends.h"

namespace shuffledp {
namespace crypto {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

class MontgomeryFuzz {
 public:
  MontgomeryFuzz(uint64_t seed, const BigInt& m)
      : rng_(seed),
        ctx_(std::move(MontgomeryCtx::Create(m)).value()),
        scratch_(ctx_),
        n_(ctx_.limbs()) {
    pool_.resize(kPool, std::vector<uint64_t>(n_, 0));
    shadow_.resize(kPool);
    for (size_t i = 0; i < kPool; ++i) {
      shadow_[i] = BigInt::RandomBelow(ctx_.modulus(), &rng_);
      ctx_.ToMontInto(shadow_[i], pool_[i].data(), &scratch_);
    }
  }

  // One random operation; returns false on a shadow-model mismatch.
  bool Step() {
    switch (rng_.NextU64() % 8) {
      case 0: {  // scalar mul, any aliasing
        size_t a = Pick(), b = Pick(), o = Pick();
        ctx_.MulInto(pool_[a].data(), pool_[b].data(), pool_[o].data(),
                     &scratch_);
        shadow_[o] = shadow_[a].Mul(shadow_[b]).Mod(ctx_.modulus());
        return Check(o, "MulInto");
      }
      case 1: {  // scalar sqr, possibly in place
        size_t a = Pick(), o = Pick();
        ctx_.SqrInto(pool_[a].data(), pool_[o].data(), &scratch_);
        shadow_[o] = shadow_[a].Mul(shadow_[a]).Mod(ctx_.modulus());
        return Check(o, "SqrInto");
      }
      case 2: {  // ct mul, any aliasing
        size_t a = Pick(), b = Pick(), o = Pick();
        ctx_.CtMulInto(pool_[a].data(), pool_[b].data(), pool_[o].data(),
                       &scratch_);
        shadow_[o] = shadow_[a].Mul(shadow_[b]).Mod(ctx_.modulus());
        return Check(o, "CtMulInto");
      }
      case 3: {  // ct sqr
        size_t a = Pick(), o = Pick();
        ctx_.CtSqrInto(pool_[a].data(), pool_[o].data(), &scratch_);
        shadow_[o] = shadow_[a].Mul(shadow_[a]).Mod(ctx_.modulus());
        return Check(o, "CtSqrInto");
      }
      case 4:  // batch mul: random lane shapes within the contract
        return BatchMul();
      case 5:  // batch sqr
        return BatchSqr();
      case 6: {  // refresh a buffer from a fresh plain value (ToMont)
        size_t o = Pick();
        shadow_[o] = BigInt::RandomBelow(ctx_.modulus(), &rng_);
        ctx_.ToMontInto(shadow_[o], pool_[o].data(), &scratch_);
        return Check(o, "ToMontInto");
      }
      default: {  // flip the batch backend under everything else
        auto backends = AvailableMontBackends();
        SetMontBackend(backends[rng_.NextU64() % backends.size()]);
        return true;
      }
    }
  }

  std::string failure() const { return failure_; }

 private:
  static constexpr size_t kPool = 8;

  size_t Pick() { return rng_.NextU64() % kPool; }

  // Random k distinct output lanes; each lane's inputs drawn from
  // {its own output buffer} ∪ {buffers outside the output set}, per the
  // batch aliasing contract.
  void PickLanes(size_t* k, std::vector<size_t>* outs,
                 std::vector<size_t>* safe) {
    *k = 1 + rng_.NextU64() % kPool;  // 1..kPool distinct outs
    std::vector<size_t> perm(kPool);
    for (size_t i = 0; i < kPool; ++i) perm[i] = i;
    for (size_t i = kPool; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng_.NextU64() % i]);
    }
    outs->assign(perm.begin(), perm.begin() + *k);
    safe->assign(perm.begin() + *k, perm.end());
  }

  size_t PickInput(size_t own_out, const std::vector<size_t>& safe) {
    if (safe.empty() || rng_.NextU64() % 3 == 0) return own_out;
    return safe[rng_.NextU64() % safe.size()];
  }

  bool BatchMul() {
    size_t k;
    std::vector<size_t> outs, safe;
    PickLanes(&k, &outs, &safe);
    std::vector<const uint64_t*> ap(k), bp(k);
    std::vector<uint64_t*> op(k);
    std::vector<size_t> ai(k), bi(k);
    for (size_t l = 0; l < k; ++l) {
      ai[l] = PickInput(outs[l], safe);
      bi[l] = PickInput(outs[l], safe);
      ap[l] = pool_[ai[l]].data();
      bp[l] = pool_[bi[l]].data();
      op[l] = pool_[outs[l]].data();
    }
    scratch_.EnsureLanes(ctx_, std::min(k, MontgomeryCtx::kMaxBatchLanes));
    ctx_.MulManyInto(k, ap.data(), bp.data(), op.data(), &scratch_);
    for (size_t l = 0; l < k; ++l) {
      shadow_[outs[l]] =
          shadow_[ai[l]].Mul(shadow_[bi[l]]).Mod(ctx_.modulus());
    }
    for (size_t l = 0; l < k; ++l) {
      if (!Check(outs[l], "MulManyInto")) return false;
    }
    return true;
  }

  bool BatchSqr() {
    size_t k;
    std::vector<size_t> outs, safe;
    PickLanes(&k, &outs, &safe);
    std::vector<const uint64_t*> ap(k);
    std::vector<uint64_t*> op(k);
    std::vector<size_t> ai(k);
    for (size_t l = 0; l < k; ++l) {
      ai[l] = PickInput(outs[l], safe);
      ap[l] = pool_[ai[l]].data();
      op[l] = pool_[outs[l]].data();
    }
    scratch_.EnsureLanes(ctx_, std::min(k, MontgomeryCtx::kMaxBatchLanes));
    ctx_.SqrManyInto(k, ap.data(), op.data(), &scratch_);
    for (size_t l = 0; l < k; ++l) {
      shadow_[outs[l]] =
          shadow_[ai[l]].Mul(shadow_[ai[l]]).Mod(ctx_.modulus());
    }
    for (size_t l = 0; l < k; ++l) {
      if (!Check(outs[l], "SqrManyInto")) return false;
    }
    return true;
  }

  bool Check(size_t idx, const char* op) {
    BigInt got = ctx_.FromMontLimbs(pool_[idx].data(), &scratch_);
    if (got == shadow_[idx]) return true;
    failure_ = std::string(op) + " buffer " + std::to_string(idx) +
               " diverged from the shadow model (backend " +
               MontBackendName(ActiveMontBackend()) + ")";
    return false;
  }

  SecureRandom rng_;
  MontgomeryCtx ctx_;
  MontgomeryCtx::Scratch scratch_;
  const size_t n_;
  std::vector<std::vector<uint64_t>> pool_;
  std::vector<BigInt> shadow_;
  std::string failure_;
};

TEST(MontgomeryFuzzTest, RandomOpSequencesMatchShadowModel) {
  const uint64_t seed = EnvU64("SHUFFLEDP_FUZZ_SEED", 0x5eed2026u);
  const uint64_t iters = EnvU64("SHUFFLEDP_FUZZ_ITERS", 300);
  std::cout << "[fuzz] SHUFFLEDP_FUZZ_SEED=" << seed
            << " SHUFFLEDP_FUZZ_ITERS=" << iters << " (replay with env)\n";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  SecureRandom meta_rng(seed);
  const size_t mod_bits[] = {65, 127, 192, 320, 512, 777, 1024};
  ScopedMontBackend restore(ActiveMontBackend());
  uint64_t ran = 0;
  for (uint64_t it = 0; it < iters; ++it) {
    if (std::chrono::steady_clock::now() > deadline) break;
    BigInt m = BigInt::RandomWithBits(
        mod_bits[meta_rng.NextU64() % (sizeof(mod_bits) / sizeof(*mod_bits))],
        &meta_rng);
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    const uint64_t iter_seed = meta_rng.NextU64();
    MontgomeryFuzz fuzz(iter_seed, m);
    const int steps = 40 + static_cast<int>(meta_rng.NextU64() % 60);
    for (int s = 0; s < steps; ++s) {
      ASSERT_TRUE(fuzz.Step())
          << fuzz.failure() << " — replay with SHUFFLEDP_FUZZ_SEED=" << seed
          << " (iteration " << it << ", step " << s << ")";
    }
    ++ran;
  }
  std::cout << "[fuzz] completed " << ran << " iterations\n";
  EXPECT_GE(ran, 1u);
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
