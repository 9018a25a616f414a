// Batch (multi-ciphertext interleaved) and constant-time Montgomery
// kernels, plus the runtime backend dispatch.
//
// Why the batch layer exists: the scalar fused-CIOS kernel is
// latency-bound on its two carry chains (each inner step's 64x64
// multiply feeds the next step's add), so a wide out-of-order core sits
// mostly idle. The PEOS server workloads never have just one operand —
// packed CRT decryption walks a ~26-ciphertext group and the EOS
// rerandomize chain walks a whole resident column — so the fix is
// K independent operations advanced in lockstep: K separate carry
// chains in one loop body keep the multiplier pipeline full.
//
// Three tiers behind runtime dispatch (util/cpu_features, as for every
// SIMD kernel); the vector tiers take whole 8-lane blocks and the
// portable interleave finishes the tail:
//  * portable — interleaved scalar lanes (K = 4 with a K = 2 / scalar
//    tail), plain uint64/u128 arithmetic;
//  * avx2 — 8 lanes as two 4-lane __m256i streams of 32-bit digits
//    (VPMULUDQ is the widest vector multiply AVX2 offers), with the
//    second stream interleaved purely to break the in-vector carry
//    latency chain. Squarings take a dedicated kernel (SqrMany8Avx2):
//    off-diagonal half-product scan, doubling fused with the diagonal,
//    then the same deferred-carry SOS reduction as the portable
//    squaring — ~1.5 d^2 vector multiplies vs the generic 2 d^2;
//  * ifma — 8 lanes of radix-2^52 digits through vpmadd52{lo,hi}uq
//    (montgomery_ifma.cpp), at the widths it has kernels for; other
//    widths take the avx2 kernels on this backend.
//
// The constant-time tier lives here too: the CIOS pass is already
// fixed-flow in every backend, so Ct* kernels are the same arithmetic
// with a branchless final correction (CtReduceOnce; the IFMA kernel
// always ends in a masked move), and CtModExp* is a fixed-window ladder
// that scans the whole window table instead of indexing it — on the
// IFMA backend in radix 2^52 from entry to exit. Backend dispatch is
// ct-safe: it keys on the CPU feature set, the modulus width, the lane
// count and pointer identity, all public, never on operand values.
//
// This is a separate translation unit so the target("avx2") functions
// and their workspace never perturb the scalar kernels' codegen in
// montgomery.cpp.

#include "crypto/montgomery.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SHUFFLEDP_MONT_AVX2_COMPILED 1
#else
#define SHUFFLEDP_MONT_AVX2_COMPILED 0
#endif

#include "util/cpu_features.h"

namespace shuffledp {
namespace crypto {

namespace {

using u128 = unsigned __int128;

bool CpuHasAvx2() {
  return SHUFFLEDP_MONT_AVX2_COMPILED && KernelCpuFeatures().avx2;
}

// The IFMA tier hands widths without an IFMA kernel to the AVX2 one.
bool CpuHasIfma() {
  const CpuFeatures& f = KernelCpuFeatures();
  return CpuHasAvx2() && f.avx512f && f.avx512ifma;
}

MontBackend& BackendOverride() {
  static MontBackend backend = BestMontBackend();
  return backend;
}

// Fixed-window width by (public) exponent size; same tradeoff shape as
// the sliding-window schedule, minus width 6 (a 64-entry table makes the
// per-window full scan too expensive).
unsigned CtWindowWidth(size_t ebits) {
  if (ebits <= 24) return 2;
  if (ebits <= 80) return 3;
  if (ebits <= 240) return 4;
  return 5;
}

// 1 if x == y else 0, branchless.
uint64_t CtEq(uint64_t x, uint64_t y) {
  uint64_t d = x ^ y;
  return 1 ^ ((d | (0 - d)) >> 63);
}

}  // namespace

MontBackend BestMontBackend() {
  if (CpuHasIfma()) return MontBackend::kIfma;
  return CpuHasAvx2() ? MontBackend::kAvx2 : MontBackend::kPortable;
}

MontBackend ActiveMontBackend() { return BackendOverride(); }

MontBackend SetMontBackend(MontBackend backend) {
  if (backend == MontBackend::kIfma && !CpuHasIfma()) {
    backend = MontBackend::kAvx2;
  }
  if (backend == MontBackend::kAvx2 && !CpuHasAvx2()) {
    backend = MontBackend::kPortable;
  }
  BackendOverride() = backend;
  return backend;
}

const char* MontBackendName(MontBackend backend) {
  switch (backend) {
    case MontBackend::kIfma:
      return "ifma";
    case MontBackend::kAvx2:
      return "avx2";
    default:
      return "portable";
  }
}

bool MontgomeryCtx::UseIfma() const {
  return !mod52_.empty() && ActiveMontBackend() == MontBackend::kIfma;
}

void MontgomeryCtx::CtReduceOnce(const uint64_t* v, uint64_t hi,
                                 uint64_t* out) const {
  const size_t n = limbs_;
  const uint64_t* mod = mod_limbs_.data();
  // Pass 1: borrow of v - m without storing the difference.
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 d = static_cast<u128>(v[i]) - mod[i] - borrow;
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  // v + hi*2^(64n) < 2m, so subtract exactly when the overflow word is
  // set or v >= m; the mask turns pass 2 into a copy otherwise.
  const uint64_t mask = 0 - (hi | (borrow ^ 1));
  borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 d = static_cast<u128>(v[i]) - (mod[i] & mask) - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
}

template <size_t K, bool CT>
void MontgomeryCtx::MulManyPortable(const uint64_t* const* a,
                                    const uint64_t* const* b,
                                    uint64_t* const* out,
                                    Scratch* scratch) const {
  const size_t n = limbs_;
  const uint64_t* mod = mod_limbs_.data();
  uint64_t* t[K];
  for (size_t l = 0; l < K; ++l) {
    t[l] = scratch->buf_.data() + l * (n + 1);
    std::fill_n(t[l], n + 1, 0);
  }
  // K fused CIOS passes in lockstep. Each lane carries its own c1/c2
  // chains, so the K multiply->add dependency chains overlap in the
  // pipeline instead of serializing (the scalar kernel's bound).
  for (size_t i = 0; i < n; ++i) {
    uint64_t bi[K], m[K], c1[K], c2[K];
    for (size_t l = 0; l < K; ++l) {
      bi[l] = b[l][i];
      u128 x = static_cast<u128>(a[l][0]) * bi[l] + t[l][0];
      m[l] = static_cast<uint64_t>(x) * mu_;
      u128 y = static_cast<u128>(m[l]) * mod[0] + static_cast<uint64_t>(x);
      c1[l] = static_cast<uint64_t>(x >> 64);
      c2[l] = static_cast<uint64_t>(y >> 64);
    }
    for (size_t j = 1; j < n; ++j) {
      for (size_t l = 0; l < K; ++l) {
        u128 x = static_cast<u128>(a[l][j]) * bi[l] + t[l][j] + c1[l];
        c1[l] = static_cast<uint64_t>(x >> 64);
        u128 y = static_cast<u128>(m[l]) * mod[j] +
                 static_cast<uint64_t>(x) + c2[l];
        t[l][j - 1] = static_cast<uint64_t>(y);
        c2[l] = static_cast<uint64_t>(y >> 64);
      }
    }
    for (size_t l = 0; l < K; ++l) {
      u128 z = static_cast<u128>(t[l][n]) + c1[l] + c2[l];
      t[l][n - 1] = static_cast<uint64_t>(z);
      t[l][n] = static_cast<uint64_t>(z >> 64);
    }
  }
  for (size_t l = 0; l < K; ++l) {
    if constexpr (CT) {
      CtReduceOnce(t[l], t[l][n], out[l]);
    } else {
      ReduceOnce(t[l], t[l][n], out[l]);
    }
  }
}

template <size_t K>
void MontgomeryCtx::SqrManyPortable(const uint64_t* const* a,
                                    uint64_t* const* out,
                                    Scratch* scratch) const {
  const size_t n = limbs_;
  const uint64_t* mod = mod_limbs_.data();
  uint64_t* t[K];
  for (size_t l = 0; l < K; ++l) {
    t[l] = scratch->buf_.data() + l * (2 * n + 1);
    std::fill_n(t[l], 2 * n + 1, 0);
  }
  // Off-diagonal products a[i]*a[j], i < j, K lanes per inner step.
  for (size_t i = 0; i + 1 < n; ++i) {
    uint64_t ai[K];
    u128 carry[K];
    for (size_t l = 0; l < K; ++l) {
      ai[l] = a[l][i];
      carry[l] = 0;
    }
    for (size_t j = i + 1; j < n; ++j) {
      for (size_t l = 0; l < K; ++l) {
        u128 cur = static_cast<u128>(ai[l]) * a[l][j] + t[l][i + j] +
                   carry[l];
        t[l][i + j] = static_cast<uint64_t>(cur);
        carry[l] = cur >> 64;
      }
    }
    for (size_t l = 0; l < K; ++l) {
      t[l][i + n] = static_cast<uint64_t>(carry[l]);
    }
  }
  // Double, then add the diagonal squares at word 2i.
  for (size_t l = 0; l < K; ++l) {
    uint64_t shift_carry = 0;
    for (size_t k = 0; k < 2 * n; ++k) {
      uint64_t v = t[l][k];
      t[l][k] = (v << 1) | shift_carry;
      shift_carry = v >> 63;
    }
    t[l][2 * n] = shift_carry;  // a^2 < 2^(128n), stays 0
  }
  uint64_t dc[K] = {};
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = 0; l < K; ++l) {
      u128 sq = static_cast<u128>(a[l][i]) * a[l][i];
      u128 lo = static_cast<u128>(t[l][2 * i]) + static_cast<uint64_t>(sq) +
                dc[l];
      t[l][2 * i] = static_cast<uint64_t>(lo);
      u128 hi = static_cast<u128>(t[l][2 * i + 1]) +
                static_cast<uint64_t>(sq >> 64) +
                static_cast<uint64_t>(lo >> 64);
      t[l][2 * i + 1] = static_cast<uint64_t>(hi);
      dc[l] = static_cast<uint64_t>(hi >> 64);
    }
  }
  for (size_t l = 0; l < K; ++l) t[l][2 * n] += dc[l];

  // Interleaved SOS reduction. Unlike RedcInto's data-dependent carry
  // ripple, the overflow out of position i+n is deferred one outer step
  // (it lands at position i+1+n, exactly where the next step adds its
  // carry), keeping every lane's flow uniform.
  uint64_t m[K], extra[K] = {};
  u128 carry[K];
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = 0; l < K; ++l) {
      m[l] = t[l][i] * mu_;
      carry[l] = 0;
    }
    for (size_t j = 0; j < n; ++j) {
      for (size_t l = 0; l < K; ++l) {
        u128 cur = static_cast<u128>(m[l]) * mod[j] + t[l][i + j] +
                   carry[l];
        t[l][i + j] = static_cast<uint64_t>(cur);
        carry[l] = cur >> 64;
      }
    }
    for (size_t l = 0; l < K; ++l) {
      u128 s = static_cast<u128>(t[l][i + n]) +
               static_cast<uint64_t>(carry[l]) + extra[l];
      t[l][i + n] = static_cast<uint64_t>(s);
      extra[l] = static_cast<uint64_t>(s >> 64);
    }
  }
  for (size_t l = 0; l < K; ++l) {
    t[l][2 * n] += extra[l];
    ReduceOnce(t[l] + n, t[l][2 * n], out[l]);
  }
}

#if SHUFFLEDP_MONT_AVX2_COMPILED

__attribute__((target("avx2"))) void MontgomeryCtx::MulMany8Avx2(
    const uint64_t* const* a, const uint64_t* const* b,
    uint64_t* const* out, bool ct) const {
  const size_t n = limbs_;
  const size_t d = 2 * n;  // 32-bit digits
  // Transposed digit-major workspace: av/bv rows hold digit j of lanes
  // 0-3 (stream A) and 4-7 (stream B) in the low halves of the four
  // 64-bit elements. Thread-local so the hot loop never allocates; a
  // word buffer with a manual 32-byte round-up rather than
  // vector<__m256i>, whose default-allocator storage is not reliably
  // 32-byte aligned under this toolchain.
  thread_local std::vector<uint64_t> wsbuf;
  const size_t need = 5 * d + 2 * (d + 1);
  if (wsbuf.size() < 4 * need + 4) wsbuf.resize(4 * need + 4);
  __m256i* avA = reinterpret_cast<__m256i*>(
      (reinterpret_cast<uintptr_t>(wsbuf.data()) + 31) & ~uintptr_t{31});
  __m256i* avB = avA + d;
  __m256i* bvA = avB + d;
  __m256i* bvB = bvA + d;
  __m256i* mv = bvB + d;
  __m256i* tA = mv + d;
  __m256i* tB = tA + (d + 1);

  auto dig = [](const uint64_t* p, size_t j) -> long long {
    return static_cast<long long>((p[j >> 1] >> ((j & 1) * 32)) &
                                  0xffffffffu);
  };
  // Squarings (SqrManyInto passes b == a lane-for-lane) reuse the a
  // transpose instead of building an identical second copy.
  const bool b_is_a = std::equal(a, a + 8, b);
  const uint32_t* md = mod_digits_.data();
  for (size_t j = 0; j < d; ++j) {
    avA[j] = _mm256_set_epi64x(dig(a[3], j), dig(a[2], j), dig(a[1], j),
                               dig(a[0], j));
    avB[j] = _mm256_set_epi64x(dig(a[7], j), dig(a[6], j), dig(a[5], j),
                               dig(a[4], j));
    if (!b_is_a) {
      bvA[j] = _mm256_set_epi64x(dig(b[3], j), dig(b[2], j), dig(b[1], j),
                                 dig(b[0], j));
      bvB[j] = _mm256_set_epi64x(dig(b[7], j), dig(b[6], j), dig(b[5], j),
                                 dig(b[4], j));
    }
    // Broadcast each modulus digit once per call; the inner loop below
    // would otherwise re-broadcast it d times (once per outer step).
    mv[j] = _mm256_set1_epi64x(static_cast<long long>(md[j]));
    tA[j] = _mm256_setzero_si256();
    tB[j] = _mm256_setzero_si256();
  }
  if (b_is_a) {
    bvA = avA;
    bvB = avB;
  }
  tA[d] = _mm256_setzero_si256();
  tB[d] = _mm256_setzero_si256();

  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i muv =
      _mm256_set1_epi64x(static_cast<long long>(mu_ & 0xffffffffu));

  // 32-bit-digit fused CIOS, two independent 4-lane streams per step.
  // Every 64-bit element stays exact: a*b + t + c <= (2^32-1)^2 +
  // 2*(2^32-1) = 2^64 - 1.
  for (size_t i = 0; i < d; ++i) {
    const __m256i biA = bvA[i];
    const __m256i biB = bvB[i];
    const __m256i mod0 = mv[0];
    __m256i xA = _mm256_add_epi64(_mm256_mul_epu32(avA[0], biA), tA[0]);
    __m256i xB = _mm256_add_epi64(_mm256_mul_epu32(avB[0], biB), tB[0]);
    const __m256i mA = _mm256_and_si256(_mm256_mul_epu32(xA, muv), mask32);
    const __m256i mB = _mm256_and_si256(_mm256_mul_epu32(xB, muv), mask32);
    __m256i yA = _mm256_add_epi64(_mm256_mul_epu32(mA, mod0),
                                  _mm256_and_si256(xA, mask32));
    __m256i yB = _mm256_add_epi64(_mm256_mul_epu32(mB, mod0),
                                  _mm256_and_si256(xB, mask32));
    __m256i c1A = _mm256_srli_epi64(xA, 32);
    __m256i c1B = _mm256_srli_epi64(xB, 32);
    __m256i c2A = _mm256_srli_epi64(yA, 32);
    __m256i c2B = _mm256_srli_epi64(yB, 32);
    for (size_t j = 1; j < d; ++j) {
      const __m256i modj = mv[j];
      xA = _mm256_add_epi64(_mm256_mul_epu32(avA[j], biA),
                            _mm256_add_epi64(tA[j], c1A));
      xB = _mm256_add_epi64(_mm256_mul_epu32(avB[j], biB),
                            _mm256_add_epi64(tB[j], c1B));
      c1A = _mm256_srli_epi64(xA, 32);
      c1B = _mm256_srli_epi64(xB, 32);
      yA = _mm256_add_epi64(
          _mm256_mul_epu32(mA, modj),
          _mm256_add_epi64(_mm256_and_si256(xA, mask32), c2A));
      yB = _mm256_add_epi64(
          _mm256_mul_epu32(mB, modj),
          _mm256_add_epi64(_mm256_and_si256(xB, mask32), c2B));
      tA[j - 1] = _mm256_and_si256(yA, mask32);
      tB[j - 1] = _mm256_and_si256(yB, mask32);
      c2A = _mm256_srli_epi64(yA, 32);
      c2B = _mm256_srli_epi64(yB, 32);
    }
    __m256i zA = _mm256_add_epi64(tA[d], _mm256_add_epi64(c1A, c2A));
    __m256i zB = _mm256_add_epi64(tB[d], _mm256_add_epi64(c1B, c2B));
    tA[d - 1] = _mm256_and_si256(zA, mask32);
    tB[d - 1] = _mm256_and_si256(zB, mask32);
    tA[d] = _mm256_srli_epi64(zA, 32);
    tB[d] = _mm256_srli_epi64(zB, 32);
  }

  // De-transpose (inputs are all consumed, so out may alias them) and
  // apply the final correction per lane; t[d] lanes are 0 or 1.
  for (int g = 0; g < 2; ++g) {
    const __m256i* t = g == 0 ? tA : tB;
    uint64_t lo4[4], hi4[4], ov4[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ov4), t[d]);
    for (size_t i = 0; i < n; ++i) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo4), t[2 * i]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi4), t[2 * i + 1]);
      for (int l = 0; l < 4; ++l) {
        out[4 * g + l][i] = lo4[l] | (hi4[l] << 32);
      }
    }
    for (int l = 0; l < 4; ++l) {
      uint64_t* o = out[4 * g + l];
      if (ct) {
        CtReduceOnce(o, ov4[l], o);  // branch is on the public ct flag
      } else {
        ReduceOnce(o, ov4[l], o);
      }
    }
  }
}

// Dedicated 8-lane squaring. The generic CIOS above spends 2*d^2 vector
// multiplies; squaring needs only ~1.5*d^2: the off-diagonal half-product
// (d^2/2), the diagonal (d), and the SOS reduction (d^2). The reduction
// mirrors SqrManyPortable's deferred-overflow scheme at 32-bit-digit
// granularity, so every 64-bit element stays exact:
//   product step  p + w + c <= (2^32-1)^2 + 2*(2^32-1) = 2^64 - 1
//   deferral step w + c + extra < 3 * 2^32.
__attribute__((target("avx2"))) void MontgomeryCtx::SqrMany8Avx2(
    const uint64_t* const* a, uint64_t* const* out, bool ct) const {
  const size_t n = limbs_;
  const size_t d = 2 * n;  // 32-bit digits
  thread_local std::vector<uint64_t> wsbuf;
  const size_t need = 3 * d + 2 * (2 * d + 1);
  if (wsbuf.size() < 4 * need + 4) wsbuf.resize(4 * need + 4);
  __m256i* avA = reinterpret_cast<__m256i*>(
      (reinterpret_cast<uintptr_t>(wsbuf.data()) + 31) & ~uintptr_t{31});
  __m256i* avB = avA + d;
  __m256i* mv = avB + d;
  __m256i* wA = mv + d;
  __m256i* wB = wA + (2 * d + 1);

  auto dig = [](const uint64_t* p, size_t j) -> long long {
    return static_cast<long long>((p[j >> 1] >> ((j & 1) * 32)) &
                                  0xffffffffu);
  };
  const uint32_t* md = mod_digits_.data();
  for (size_t j = 0; j < d; ++j) {
    avA[j] = _mm256_set_epi64x(dig(a[3], j), dig(a[2], j), dig(a[1], j),
                               dig(a[0], j));
    avB[j] = _mm256_set_epi64x(dig(a[7], j), dig(a[6], j), dig(a[5], j),
                               dig(a[4], j));
    mv[j] = _mm256_set1_epi64x(static_cast<long long>(md[j]));
  }

  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i muv =
      _mm256_set1_epi64x(static_cast<long long>(mu_ & 0xffffffffu));

  // Off-diagonal products a_i * a_j, i < j, row-scanned with a running
  // carry; the carry out of row i lands in the untouched digit i+d.
  // Row 0 writes digits 1..d fresh and later rows read before writing,
  // so only the digits the scan never touches need explicit zeroing.
  wA[0] = _mm256_setzero_si256();
  wB[0] = _mm256_setzero_si256();
  wA[2 * d - 1] = _mm256_setzero_si256();
  wB[2 * d - 1] = _mm256_setzero_si256();
  {
    const __m256i a0A = avA[0];
    const __m256i a0B = avB[0];
    __m256i cA = _mm256_setzero_si256();
    __m256i cB = _mm256_setzero_si256();
    for (size_t j = 1; j < d; ++j) {
      const __m256i xA =
          _mm256_add_epi64(_mm256_mul_epu32(a0A, avA[j]), cA);
      const __m256i xB =
          _mm256_add_epi64(_mm256_mul_epu32(a0B, avB[j]), cB);
      wA[j] = _mm256_and_si256(xA, mask32);
      wB[j] = _mm256_and_si256(xB, mask32);
      cA = _mm256_srli_epi64(xA, 32);
      cB = _mm256_srli_epi64(xB, 32);
    }
    wA[d] = cA;
    wB[d] = cB;
  }
  for (size_t i = 1; i + 1 < d; ++i) {
    const __m256i aiA = avA[i];
    const __m256i aiB = avB[i];
    __m256i cA = _mm256_setzero_si256();
    __m256i cB = _mm256_setzero_si256();
    for (size_t j = i + 1; j < d; ++j) {
      const __m256i xA = _mm256_add_epi64(
          _mm256_mul_epu32(aiA, avA[j]), _mm256_add_epi64(wA[i + j], cA));
      const __m256i xB = _mm256_add_epi64(
          _mm256_mul_epu32(aiB, avB[j]), _mm256_add_epi64(wB[i + j], cB));
      wA[i + j] = _mm256_and_si256(xA, mask32);
      wB[i + j] = _mm256_and_si256(xB, mask32);
      cA = _mm256_srli_epi64(xA, 32);
      cB = _mm256_srli_epi64(xB, 32);
    }
    wA[i + d] = cA;
    wB[i + d] = cB;
  }

  // Double the off-diagonal sum (it is at most a^2 / 2, so the shift out
  // of digit 2d-1 is zero) and fold in the diagonal square at digit pair
  // (2i, 2i+1) in the same pass, with a deferred carry exactly as
  // SqrManyPortable uses on 64-bit limbs. Each digit is loaded and
  // stored once.
  __m256i scA = _mm256_setzero_si256();
  __m256i scB = _mm256_setzero_si256();
  __m256i dcA = _mm256_setzero_si256();
  __m256i dcB = _mm256_setzero_si256();
  for (size_t i = 0; i < d; ++i) {
    const __m256i v0A = wA[2 * i];
    const __m256i v0B = wB[2 * i];
    const __m256i v1A = wA[2 * i + 1];
    const __m256i v1B = wB[2 * i + 1];
    const __m256i d0A = _mm256_and_si256(
        _mm256_or_si256(_mm256_slli_epi64(v0A, 1), scA), mask32);
    const __m256i d0B = _mm256_and_si256(
        _mm256_or_si256(_mm256_slli_epi64(v0B, 1), scB), mask32);
    const __m256i s0A = _mm256_srli_epi64(v0A, 31);
    const __m256i s0B = _mm256_srli_epi64(v0B, 31);
    const __m256i d1A = _mm256_and_si256(
        _mm256_or_si256(_mm256_slli_epi64(v1A, 1), s0A), mask32);
    const __m256i d1B = _mm256_and_si256(
        _mm256_or_si256(_mm256_slli_epi64(v1B, 1), s0B), mask32);
    scA = _mm256_srli_epi64(v1A, 31);
    scB = _mm256_srli_epi64(v1B, 31);
    const __m256i sqA = _mm256_mul_epu32(avA[i], avA[i]);
    const __m256i sqB = _mm256_mul_epu32(avB[i], avB[i]);
    const __m256i loA = _mm256_add_epi64(
        d0A, _mm256_add_epi64(_mm256_and_si256(sqA, mask32), dcA));
    const __m256i loB = _mm256_add_epi64(
        d0B, _mm256_add_epi64(_mm256_and_si256(sqB, mask32), dcB));
    wA[2 * i] = _mm256_and_si256(loA, mask32);
    wB[2 * i] = _mm256_and_si256(loB, mask32);
    const __m256i hiA = _mm256_add_epi64(
        d1A, _mm256_add_epi64(_mm256_srli_epi64(sqA, 32),
                              _mm256_srli_epi64(loA, 32)));
    const __m256i hiB = _mm256_add_epi64(
        d1B, _mm256_add_epi64(_mm256_srli_epi64(sqB, 32),
                              _mm256_srli_epi64(loB, 32)));
    wA[2 * i + 1] = _mm256_and_si256(hiA, mask32);
    wB[2 * i + 1] = _mm256_and_si256(hiB, mask32);
    dcA = _mm256_srli_epi64(hiA, 32);
    dcB = _mm256_srli_epi64(hiB, 32);
  }
  wA[2 * d] = dcA;  // the doubling shift-out scA is provably zero
  wB[2 * d] = dcB;

  // Interleaved SOS reduction; the overflow out of digit i+d is deferred
  // one outer step, where the next step's carry lands on it.
  __m256i exA = _mm256_setzero_si256();
  __m256i exB = _mm256_setzero_si256();
  for (size_t i = 0; i < d; ++i) {
    // No mask needed: mul_epu32 reads only the low 32 bits of each lane.
    const __m256i mA = _mm256_mul_epu32(wA[i], muv);
    const __m256i mB = _mm256_mul_epu32(wB[i], muv);
    __m256i cA = _mm256_setzero_si256();
    __m256i cB = _mm256_setzero_si256();
    for (size_t j = 0; j < d; ++j) {
      const __m256i xA = _mm256_add_epi64(
          _mm256_mul_epu32(mA, mv[j]), _mm256_add_epi64(wA[i + j], cA));
      const __m256i xB = _mm256_add_epi64(
          _mm256_mul_epu32(mB, mv[j]), _mm256_add_epi64(wB[i + j], cB));
      wA[i + j] = _mm256_and_si256(xA, mask32);
      wB[i + j] = _mm256_and_si256(xB, mask32);
      cA = _mm256_srli_epi64(xA, 32);
      cB = _mm256_srli_epi64(xB, 32);
    }
    const __m256i sA =
        _mm256_add_epi64(wA[i + d], _mm256_add_epi64(cA, exA));
    const __m256i sB =
        _mm256_add_epi64(wB[i + d], _mm256_add_epi64(cB, exB));
    wA[i + d] = _mm256_and_si256(sA, mask32);
    wB[i + d] = _mm256_and_si256(sB, mask32);
    exA = _mm256_srli_epi64(sA, 32);
    exB = _mm256_srli_epi64(sB, 32);
  }
  wA[2 * d] = _mm256_add_epi64(wA[2 * d], exA);
  wB[2 * d] = _mm256_add_epi64(wB[2 * d], exB);

  // De-transpose digits d..2d-1 (inputs fully consumed, so out may alias
  // them) and apply the final correction; w[2d] lanes are 0 or 1.
  for (int g = 0; g < 2; ++g) {
    const __m256i* w = g == 0 ? wA : wB;
    uint64_t lo4[4], hi4[4], ov4[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ov4), w[2 * d]);
    for (size_t i = 0; i < n; ++i) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo4), w[d + 2 * i]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi4), w[d + 2 * i + 1]);
      for (int l = 0; l < 4; ++l) {
        out[4 * g + l][i] = lo4[l] | (hi4[l] << 32);
      }
    }
    for (int l = 0; l < 4; ++l) {
      uint64_t* o = out[4 * g + l];
      if (ct) {
        CtReduceOnce(o, ov4[l], o);  // branch is on the public ct flag
      } else {
        ReduceOnce(o, ov4[l], o);
      }
    }
  }
}

#else  // !SHUFFLEDP_MONT_AVX2_COMPILED

void MontgomeryCtx::MulMany8Avx2(const uint64_t* const*,
                                 const uint64_t* const*,
                                 uint64_t* const*, bool) const {
  assert(false && "AVX2 backend selected on a host without AVX2");
}

void MontgomeryCtx::SqrMany8Avx2(const uint64_t* const*, uint64_t* const*,
                                 bool) const {
  assert(false && "AVX2 backend selected on a host without AVX2");
}

#endif  // SHUFFLEDP_MONT_AVX2_COMPILED

void MontgomeryCtx::MulManyInto(size_t k, const uint64_t* const* a,
                                const uint64_t* const* b,
                                uint64_t* const* out,
                                Scratch* scratch) const {
  scratch->EnsureLanes(*this, std::min<size_t>(k, 4));
  size_t idx = 0;
  if (UseIfma()) {
    for (; k - idx >= 8; idx += 8) MulMany8Ifma(a + idx, b + idx, out + idx);
  } else if (ActiveMontBackend() != MontBackend::kPortable) {
    for (; k - idx >= 8; idx += 8) {
      MulMany8Avx2(a + idx, b + idx, out + idx, /*ct=*/false);
    }
  }
  for (; k - idx >= 4; idx += 4) {
    MulManyPortable<4, false>(a + idx, b + idx, out + idx, scratch);
  }
  if (k - idx >= 2) {
    MulManyPortable<2, false>(a + idx, b + idx, out + idx, scratch);
    idx += 2;
  }
  if (k - idx == 1) {
    MulInto(a[idx], b[idx], out[idx], scratch);
  }
}

void MontgomeryCtx::SqrManyInto(size_t k, const uint64_t* const* a,
                                uint64_t* const* out,
                                Scratch* scratch) const {
  scratch->EnsureLanes(*this, std::min<size_t>(k, 4));
  size_t idx = 0;
  if (UseIfma()) {
    for (; k - idx >= 8; idx += 8) MulMany8Ifma(a + idx, a + idx, out + idx);
  } else if (ActiveMontBackend() != MontBackend::kPortable) {
    for (; k - idx >= 8; idx += 8) {
      SqrMany8Avx2(a + idx, out + idx, /*ct=*/false);
    }
  }
  for (; k - idx >= 4; idx += 4) {
    SqrManyPortable<4>(a + idx, out + idx, scratch);
  }
  if (k - idx >= 2) {
    SqrManyPortable<2>(a + idx, out + idx, scratch);
    idx += 2;
  }
  if (k - idx == 1) {
    SqrInto(a[idx], out[idx], scratch);
  }
}

void MontgomeryCtx::ToMontManyInto(size_t k, const BigInt* const* a,
                                   uint64_t* const* out,
                                   Scratch* scratch) const {
  const size_t n = limbs_;
  // c = hi*R + lo with lo, hi < R gives c*R = lo*R^2*R^-1 + hi*R^3*R^-1
  // (mod m). Every kernel accepts a first operand below R, not only below
  // m, and returns the canonical residue, so the modular sum below is
  // bitwise ToMont(c mod m) — without a division.
  const uint64_t* rr[kMaxBatchLanes];
  const uint64_t* rrr[kMaxBatchLanes];
  uint64_t* hi[kMaxBatchLanes];
  std::vector<uint64_t> hiv;
  for (size_t done = 0; done < k; done += kMaxBatchLanes) {
    const size_t kb = std::min(kMaxBatchLanes, k - done);
    bool wide = false;
    for (size_t l = 0; l < kb; ++l) {
      wide |= a[done + l]->limb_count() > n;
    }
    if (wide && hiv.empty()) hiv.resize(kMaxBatchLanes * n);
    for (size_t l = 0; l < kb; ++l) {
      const BigInt* v = a[done + l];
      BigInt reduced;
      if (v->limb_count() > 2 * n) {
        reduced = v->Mod(modulus_);
        v = &reduced;
      }
      for (size_t i = 0; i < n; ++i) out[done + l][i] = v->limb(i);
      if (wide) {
        hi[l] = hiv.data() + l * n;
        for (size_t i = 0; i < n; ++i) hi[l][i] = v->limb(n + i);
      }
      rr[l] = rr_limbs_.data();
      rrr[l] = rrr_limbs_.data();
    }
    MulManyInto(kb, out + done, rr, out + done, scratch);
    if (!wide) continue;
    MulManyInto(kb, hi, rrr, hi, scratch);
    for (size_t l = 0; l < kb; ++l) {
      uint64_t* o = out[done + l];
      uint64_t carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(o[i]) + hi[l][i] + carry;
        o[i] = static_cast<uint64_t>(sum);
        carry = static_cast<uint64_t>(sum >> 64);
      }
      ReduceOnce(o, carry, o);
    }
  }
}

void MontgomeryCtx::CtMulInto(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, Scratch* scratch) const {
  scratch->EnsureLanes(*this, 1);
  MulManyPortable<1, true>(&a, &b, &out, scratch);
}

void MontgomeryCtx::CtSqrInto(const uint64_t* a, uint64_t* out,
                              Scratch* scratch) const {
  CtMulInto(a, a, out, scratch);
}

void MontgomeryCtx::CtMulManyInto(size_t k, const uint64_t* const* a,
                                  const uint64_t* const* b,
                                  uint64_t* const* out,
                                  Scratch* scratch) const {
  scratch->EnsureLanes(*this, std::min<size_t>(k, 4));
  size_t idx = 0;
  if (UseIfma()) {
    // The IFMA kernel always ends in the masked subtraction.
    for (; k - idx >= 8; idx += 8) MulMany8Ifma(a + idx, b + idx, out + idx);
  } else if (ActiveMontBackend() != MontBackend::kPortable) {
    for (; k - idx >= 8; idx += 8) {
      // The ct ladder squares via CtMulManyInto(acc, acc, acc); routing
      // on pointer identity is operand-value independent, so it is safe
      // under the ct contract.
      if (std::equal(a + idx, a + idx + 8, b + idx)) {
        SqrMany8Avx2(a + idx, out + idx, /*ct=*/true);
      } else {
        MulMany8Avx2(a + idx, b + idx, out + idx, /*ct=*/true);
      }
    }
  }
  for (; k - idx >= 4; idx += 4) {
    MulManyPortable<4, true>(a + idx, b + idx, out + idx, scratch);
  }
  if (k - idx >= 2) {
    MulManyPortable<2, true>(a + idx, b + idx, out + idx, scratch);
    idx += 2;
  }
  if (k - idx == 1) {
    MulManyPortable<1, true>(a + idx, b + idx, out + idx, scratch);
  }
}

void MontgomeryCtx::CtModExpManyInto(size_t k,
                                     const uint64_t* const* base_mont,
                                     const BigInt& exponent, size_t exp_bits,
                                     uint64_t* const* out,
                                     Scratch* scratch) const {
  const size_t n = limbs_;
  if (exp_bits < exponent.BitLength()) exp_bits = exponent.BitLength();

  // Exponent digits come from a zero-padded copy so the extraction below
  // can read one word past the top without branching (BigInt::limb is
  // range-checked, but the copy fixes the access pattern to exp_bits).
  const size_t ewords = (exp_bits + 63) / 64;
  std::vector<uint64_t> e(ewords + 1, 0);
  for (size_t i = 0; i < ewords; ++i) e[i] = exponent.limb(i);

  const unsigned w = CtWindowWidth(exp_bits);
  const size_t tsize = size_t{1} << w;
  const size_t nwin = (exp_bits + w - 1) / w;
  // Window digits, least significant first; the ladder reads them at
  // public indices and turns each into masks, never into an address.
  std::vector<uint64_t> digits(nwin);
  for (size_t win = 0; win < nwin; ++win) {
    const size_t lo = win * w;
    const u128 window = (static_cast<u128>(e[lo / 64 + 1]) << 64) |
                        e[lo / 64];
    digits[win] = static_cast<uint64_t>(window >> (lo % 64)) & (tsize - 1);
  }

  for (size_t done = 0; done < k; done += kMaxBatchLanes) {
    const size_t kb = std::min(kMaxBatchLanes, k - done);
    const uint64_t* const* bases = base_mont + done;
    if (kb == kMaxBatchLanes && UseIfma()) {
      CtModExpMany8Ifma(bases, digits.data(), nwin, w, out + done);
      continue;
    }

    // Per-lane window table, entry 0 = Montgomery one so a zero digit
    // multiplies by the identity (the ladder multiplies every window).
    std::vector<uint64_t> tbl(kb * tsize * n);
    auto te = [&](size_t l, size_t d) {
      return tbl.data() + (l * tsize + d) * n;
    };
    const uint64_t* prev[kMaxBatchLanes];
    const uint64_t* basep[kMaxBatchLanes];
    uint64_t* next[kMaxBatchLanes];
    for (size_t l = 0; l < kb; ++l) {
      std::copy(one_mont_limbs_.begin(), one_mont_limbs_.end(), te(l, 0));
      std::copy(bases[l], bases[l] + n, te(l, 1));
      basep[l] = te(l, 1);
    }
    for (size_t d = 2; d < tsize; ++d) {
      for (size_t l = 0; l < kb; ++l) {
        prev[l] = te(l, d - 1);
        next[l] = te(l, d);
      }
      CtMulManyInto(kb, prev, basep, next, scratch);
    }

    std::vector<uint64_t> accv(kb * n), selv(kb * n);
    uint64_t* acc[kMaxBatchLanes];
    uint64_t* sel[kMaxBatchLanes];
    for (size_t l = 0; l < kb; ++l) {
      acc[l] = accv.data() + l * n;
      sel[l] = selv.data() + l * n;
      std::copy(one_mont_limbs_.begin(), one_mont_limbs_.end(), acc[l]);
    }

    // Uniform ladder: w ct squarings + one ct table scan + one ct
    // multiply per window, including the top window (squaring the
    // Montgomery one and multiplying by it are identities, so the first
    // window needs no special case — and gets none, by design).
    for (size_t win = nwin; win-- > 0;) {
      for (unsigned s = 0; s < w; ++s) {
        CtMulManyInto(kb, acc, acc, acc, scratch);
      }
      std::fill(selv.begin(), selv.end(), 0);
      for (size_t d = 0; d < tsize; ++d) {
        const uint64_t msk = 0 - CtEq(d, digits[win]);
        for (size_t l = 0; l < kb; ++l) {
          const uint64_t* src = te(l, d);
          for (size_t i = 0; i < n; ++i) sel[l][i] |= src[i] & msk;
        }
      }
      CtMulManyInto(kb, acc, sel, acc, scratch);
    }
    for (size_t l = 0; l < kb; ++l) {
      std::copy(acc[l], acc[l] + n, out[done + l]);
    }
  }
}

BigInt MontgomeryCtx::CtModExp(const BigInt& base, const BigInt& exponent,
                               size_t exp_bits) const {
  const size_t n = limbs_;
  Scratch scratch(*this);
  std::vector<uint64_t> bm(n);
  std::vector<uint64_t> acc(n);
  // Entry/exit conversions are variable-time in the *base* only; the ct
  // contract covers the exponent (see the header).
  ToMontInto(base < modulus_ ? base : base.Mod(modulus_), bm.data(),
             &scratch);
  const uint64_t* bmp = bm.data();
  uint64_t* accp = acc.data();
  CtModExpManyInto(1, &bmp, exponent, exp_bits, &accp, &scratch);
  // ct exit: one more ct multiply by the plain-domain 1 strips the R
  // factor without RedcInto's data-dependent carry ripple.
  std::vector<uint64_t> one(n, 0);
  one[0] = 1;
  CtMulInto(accp, one.data(), accp, &scratch);
  return BigInt::FromLimbsLittleEndian(std::move(acc));
}

}  // namespace crypto
}  // namespace shuffledp
