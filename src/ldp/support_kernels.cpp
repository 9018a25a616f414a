// Bulk support-evaluation kernels — see support_kernels.h for the design.
//
// Layout notes shared by both backends:
//
//  * The per-pair predicate is
//      XxHash64Key8(v, seed) % d' == report.value
//    and the first hash round k1(v) = rotl(v·P2, 31)·P1 depends only on
//    the domain value, so a value tile computes k1 once and reuses it
//    across every report in the report tile (≈40% of the multiplies
//    hoisted out of the O(batch × d) inner loop).
//
//  * Tiling: report tiles of 2048 (16 KiB of LdpReports) stay L1-resident
//    while the value loop walks over them; value tiles of 512 keep the
//    k1 cache + the touched counter slice another ~8 KiB. One batch is
//    streamed once per value tile — all from L1 after the first pass.
//
//  * `% d'` must be bitwise the `%` operator (protocol semantics shared
//    with the client Encode) — powers of two reduce with a mask, general
//    d' through the branch-free Granlund–Montgomery magic in
//    SupportModulus. tests/ldp/support_kernel_test.cpp pins Reduce()
//    against `%` and the whole kernel against the per-pair loop.
//
// This is a separate translation unit so the target("avx2") functions can
// be compiled with vector codegen while the rest of the library keeps the
// project-wide baseline flags (same idiom as crypto/montgomery_batch.cpp).

#include "ldp/support_kernels.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "util/cpu_features.h"
#include "util/hash.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SHUFFLEDP_SUPPORT_AVX2_COMPILED 1
#if defined(__GNUC__) && !defined(__clang__)
// GCC's AVX-512 masked-intrinsic headers trip -Wmaybe-uninitialized on
// the undefined pass-through operand of the _maskz_ forms; there is no
// real read of uninitialized data (gcc bugzilla 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#else
#define SHUFFLEDP_SUPPORT_AVX2_COMPILED 0
#endif

namespace shuffledp {
namespace ldp {

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;
// seed + P5 + len(8): the whole seed-dependent hash prologue.
constexpr uint64_t kSeedBias = kP5 + 8;

constexpr size_t kReportTile = 2048;
constexpr size_t kValueTile = 512;

inline uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

/// k1(v): the seed-independent first round of the 8-byte-key hash.
inline uint64_t KeyRound(uint64_t v) { return Rotl64(v * kP2, 31) * kP1; }

/// Finishes the hash given h0 = seed + kSeedBias and k1 = KeyRound(v).
/// Identical tail to XxHash64Key8 (util/hash.h).
inline uint64_t FinishHash(uint64_t h0, uint64_t k1) {
  uint64_t h = h0 ^ k1;
  h = Rotl64(h, 27) * kP1 + kP4;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// Explicit SHUFFLEDP_SUPPORT_BACKEND requests read the host's features,
// so they keep precedence over SHUFFLEDP_FORCE_PORTABLE; automatic
// selection and SetSupportBackend read the kernel features, which that
// variable empties.
bool HasAvx2(const CpuFeatures& f) {
  return SHUFFLEDP_SUPPORT_AVX2_COMPILED && f.avx2;
}

bool HasAvx512(const CpuFeatures& f) {
  // F for the 512-bit integer base ops, DQ for VPMULLQ.
  return SHUFFLEDP_SUPPORT_AVX2_COMPILED && f.avx512f && f.avx512dq;
}

SupportBackend& BackendOverride() {
  static SupportBackend backend = BestSupportBackend();
  return backend;
}

// ---------------------------------------------------------------------------
// Portable backend: scalar straight-line hash, 4-value unroll so the four
// independent dependency chains fill the scalar multiplier, magic modulo
// instead of a hardware divide.
// ---------------------------------------------------------------------------

template <bool kPow2>
void AccumulatePortable(const LdpReport* reports, size_t count,
                        uint64_t value_lo, uint64_t value_hi,
                        const SupportModulus& mod, uint64_t* counts) {
  uint64_t k1[kValueTile];
  for (size_t rlo = 0; rlo < count; rlo += kReportTile) {
    const size_t rhi = rlo + std::min(kReportTile, count - rlo);
    for (uint64_t vlo = value_lo; vlo < value_hi; vlo += kValueTile) {
      const uint64_t vhi =
          vlo + std::min<uint64_t>(kValueTile, value_hi - vlo);
      const size_t vn = vhi - vlo;
      for (size_t j = 0; j < vn; ++j) k1[j] = KeyRound(vlo + j);

      size_t j = 0;
      for (; j + 4 <= vn; j += 4) {
        uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
        for (size_t r = rlo; r < rhi; ++r) {
          const uint64_t h0 = reports[r].seed + kSeedBias;
          const uint64_t target = reports[r].value;
          uint64_t m0, m1, m2, m3;
          if (kPow2) {
            m0 = FinishHash(h0, k1[j + 0]) & mod.mask;
            m1 = FinishHash(h0, k1[j + 1]) & mod.mask;
            m2 = FinishHash(h0, k1[j + 2]) & mod.mask;
            m3 = FinishHash(h0, k1[j + 3]) & mod.mask;
          } else {
            m0 = mod.Reduce(FinishHash(h0, k1[j + 0]));
            m1 = mod.Reduce(FinishHash(h0, k1[j + 1]));
            m2 = mod.Reduce(FinishHash(h0, k1[j + 2]));
            m3 = mod.Reduce(FinishHash(h0, k1[j + 3]));
          }
          c0 += m0 == target;
          c1 += m1 == target;
          c2 += m2 == target;
          c3 += m3 == target;
        }
        counts[vlo - value_lo + j + 0] += c0;
        counts[vlo - value_lo + j + 1] += c1;
        counts[vlo - value_lo + j + 2] += c2;
        counts[vlo - value_lo + j + 3] += c3;
      }
      for (; j < vn; ++j) {
        uint64_t c = 0;
        for (size_t r = rlo; r < rhi; ++r) {
          const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1[j]);
          c += (kPow2 ? (h & mod.mask) : mod.Reduce(h)) == reports[r].value;
        }
        counts[vlo - value_lo + j] += c;
      }
    }
  }
}

template <bool kPow2>
uint64_t CountPortable(const LdpReport* reports, size_t count, uint64_t value,
                       const SupportModulus& mod) {
  const uint64_t k1 = KeyRound(value);
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    uint64_t h0 = FinishHash(reports[r + 0].seed + kSeedBias, k1);
    uint64_t h1 = FinishHash(reports[r + 1].seed + kSeedBias, k1);
    uint64_t h2 = FinishHash(reports[r + 2].seed + kSeedBias, k1);
    uint64_t h3 = FinishHash(reports[r + 3].seed + kSeedBias, k1);
    if (kPow2) {
      c0 += (h0 & mod.mask) == reports[r + 0].value;
      c1 += (h1 & mod.mask) == reports[r + 1].value;
      c2 += (h2 & mod.mask) == reports[r + 2].value;
      c3 += (h3 & mod.mask) == reports[r + 3].value;
    } else {
      c0 += mod.Reduce(h0) == reports[r + 0].value;
      c1 += mod.Reduce(h1) == reports[r + 1].value;
      c2 += mod.Reduce(h2) == reports[r + 2].value;
      c3 += mod.Reduce(h3) == reports[r + 3].value;
    }
  }
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c0 += (kPow2 ? (h & mod.mask) : mod.Reduce(h)) == reports[r].value;
  }
  return c0 + c1 + c2 + c3;
}

// ---------------------------------------------------------------------------
// AVX2 backend: 4 × 64-bit hash lanes per vector. 64-bit lane multiplies
// are synthesized from VPMULUDQ (32×32→64) — the widest vector multiply
// AVX2 offers — exactly as in the Montgomery batch kernels.
// ---------------------------------------------------------------------------

#if SHUFFLEDP_SUPPORT_AVX2_COMPILED

// mullo64(a, b) for a constant b handed in as (b, b >> 32) splats.
__attribute__((target("avx2"))) inline __m256i MulLo64Const(
    __m256i a, __m256i b, __m256i b_hi) {
  __m256i lo = _mm256_mul_epu32(a, b);                        // a_lo · b_lo
  __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// high 64 bits of a · m for a constant multiplier m = (m, m >> 32) splats.
__attribute__((target("avx2"))) inline __m256i MulHi64Const(
    __m256i a, __m256i m, __m256i m_hi, __m256i mask32) {
  __m256i a_hi = _mm256_srli_epi64(a, 32);
  __m256i lolo = _mm256_mul_epu32(a, m);
  __m256i hilo = _mm256_mul_epu32(a_hi, m);
  __m256i lohi = _mm256_mul_epu32(a, m_hi);
  __m256i hihi = _mm256_mul_epu32(a_hi, m_hi);
  __m256i cross = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_srli_epi64(lolo, 32),
                       _mm256_and_si256(hilo, mask32)),
      _mm256_and_si256(lohi, mask32));
  return _mm256_add_epi64(
      _mm256_add_epi64(hihi, _mm256_srli_epi64(hilo, 32)),
      _mm256_add_epi64(_mm256_srli_epi64(lohi, 32),
                       _mm256_srli_epi64(cross, 32)));
}

/// Vector constants one kernel invocation needs; built once per call.
struct Avx2Ctx {
  __m256i p1, p1_hi, p2, p2_hi, p3, p3_hi, p4;
  __m256i mask32;
  // modulo plumbing
  bool pow2;
  __m256i mod_mask;                  // pow2: d' − 1
  __m256i magic, magic_hi, d, one;   // general: branch-free magic divide
  int shift;
};

__attribute__((target("avx2"))) Avx2Ctx MakeAvx2Ctx(
    const SupportModulus& mod) {
  Avx2Ctx c;
  c.p1 = _mm256_set1_epi64x(static_cast<long long>(kP1));
  c.p1_hi = _mm256_set1_epi64x(static_cast<long long>(kP1 >> 32));
  c.p2 = _mm256_set1_epi64x(static_cast<long long>(kP2));
  c.p2_hi = _mm256_set1_epi64x(static_cast<long long>(kP2 >> 32));
  c.p3 = _mm256_set1_epi64x(static_cast<long long>(kP3));
  c.p3_hi = _mm256_set1_epi64x(static_cast<long long>(kP3 >> 32));
  c.p4 = _mm256_set1_epi64x(static_cast<long long>(kP4));
  c.mask32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  c.pow2 = mod.mask != 0;
  c.mod_mask = _mm256_set1_epi64x(static_cast<long long>(mod.mask));
  c.magic = _mm256_set1_epi64x(static_cast<long long>(mod.magic));
  c.magic_hi = _mm256_set1_epi64x(static_cast<long long>(mod.magic >> 32));
  c.d = _mm256_set1_epi64x(static_cast<long long>(mod.d));
  c.one = _mm256_set1_epi64x(1);
  c.shift = static_cast<int>(mod.shift);
  return c;
}

/// FinishHash over 4 lanes: h0 is the seed-dependent prologue splat, k1
/// the per-value first rounds. Bitwise lane-equal to the scalar tail.
__attribute__((target("avx2"))) inline __m256i FinishHash4(
    __m256i h0, __m256i k1, const Avx2Ctx& c) {
  __m256i h = _mm256_xor_si256(h0, k1);
  // rotl(h, 27) · P1 + P4
  h = _mm256_or_si256(_mm256_slli_epi64(h, 27), _mm256_srli_epi64(h, 37));
  h = _mm256_add_epi64(MulLo64Const(h, c.p1, c.p1_hi), c.p4);
  // avalanche
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
  h = MulLo64Const(h, c.p2, c.p2_hi);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
  h = MulLo64Const(h, c.p3, c.p3_hi);
  h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
  return h;
}

/// x % d' over 4 lanes (x & mask for powers of two, else the same
/// branch-free magic sequence as SupportModulus::Reduce).
__attribute__((target("avx2"))) inline __m256i Mod4(__m256i x,
                                                    const Avx2Ctx& c) {
  if (c.pow2) return _mm256_and_si256(x, c.mod_mask);
  __m256i q = MulHi64Const(x, c.magic, c.magic_hi, c.mask32);
  __m256i t = _mm256_add_epi64(
      _mm256_srli_epi64(_mm256_sub_epi64(x, q), 1), q);
  q = _mm256_srli_epi64(t, c.shift);
  // q · d with d < 2^32: two VPMULUDQ halves.
  __m256i prod = _mm256_add_epi64(
      _mm256_mul_epu32(q, c.d),
      _mm256_slli_epi64(_mm256_mul_epu32(_mm256_srli_epi64(q, 32), c.d),
                        32));
  return _mm256_sub_epi64(x, prod);
}

__attribute__((target("avx2"))) void AccumulateAvx2(
    const LdpReport* reports, size_t count, uint64_t value_lo,
    uint64_t value_hi, const SupportModulus& mod, uint64_t* counts) {
  const Avx2Ctx ctx = MakeAvx2Ctx(mod);
  alignas(32) uint64_t k1[kValueTile];
  for (size_t rlo = 0; rlo < count; rlo += kReportTile) {
    const size_t rhi = rlo + std::min(kReportTile, count - rlo);
    for (uint64_t vlo = value_lo; vlo < value_hi; vlo += kValueTile) {
      const uint64_t vhi =
          vlo + std::min<uint64_t>(kValueTile, value_hi - vlo);
      const size_t vn = vhi - vlo;
      for (size_t j = 0; j < vn; ++j) k1[j] = KeyRound(vlo + j);

      size_t j = 0;
      // 8 values per pass: two independent 4-lane chains hide the
      // multiply latency; per-value support counts accumulate in vector
      // registers across the whole report tile (≤ 2048 < 2^63, no
      // overflow) and flush once.
      for (; j + 8 <= vn; j += 8) {
        const __m256i k1a =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(k1 + j));
        const __m256i k1b =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(k1 + j + 4));
        __m256i acc_a = _mm256_setzero_si256();
        __m256i acc_b = _mm256_setzero_si256();
        for (size_t r = rlo; r < rhi; ++r) {
          const __m256i h0 = _mm256_set1_epi64x(
              static_cast<long long>(reports[r].seed + kSeedBias));
          const __m256i target = _mm256_set1_epi64x(
              static_cast<long long>(reports[r].value));
          const __m256i ma = Mod4(FinishHash4(h0, k1a, ctx), ctx);
          const __m256i mb = Mod4(FinishHash4(h0, k1b, ctx), ctx);
          // cmpeq lanes are 0 / −1: subtracting adds 0 / 1.
          acc_a = _mm256_sub_epi64(acc_a, _mm256_cmpeq_epi64(ma, target));
          acc_b = _mm256_sub_epi64(acc_b, _mm256_cmpeq_epi64(mb, target));
        }
        uint64_t* out = counts + (vlo - value_lo) + j;
        __m256i cur_a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out));
        __m256i cur_b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + 4));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                            _mm256_add_epi64(cur_a, acc_a));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4),
                            _mm256_add_epi64(cur_b, acc_b));
      }
      // Scalar tail values (< 8): same math, bitwise identical.
      for (; j < vn; ++j) {
        uint64_t c = 0;
        for (size_t r = rlo; r < rhi; ++r) {
          const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1[j]);
          c += mod.Reduce(h) == reports[r].value;
        }
        counts[vlo - value_lo + j] += c;
      }
    }
  }
}

__attribute__((target("avx2"))) uint64_t CountAvx2(
    const LdpReport* reports, size_t count, uint64_t value,
    const SupportModulus& mod) {
  const Avx2Ctx ctx = MakeAvx2Ctx(mod);
  const uint64_t k1 = KeyRound(value);
  const __m256i k1v = _mm256_set1_epi64x(static_cast<long long>(k1));
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<long long>(kSeedBias));
  __m256i acc = _mm256_setzero_si256();
  size_t r = 0;
  // Reports are (seed, value) u32 pairs: each 64-bit lane of an unaligned
  // load is seed | value << 32.
  for (; r + 4 <= count; r += 4) {
    const __m256i rep = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(reports + r));
    const __m256i seeds = _mm256_and_si256(rep, ctx.mask32);
    const __m256i targets = _mm256_srli_epi64(rep, 32);
    const __m256i h0 = _mm256_add_epi64(seeds, bias);
    const __m256i m = Mod4(FinishHash4(h0, k1v, ctx), ctx);
    acc = _mm256_sub_epi64(acc, _mm256_cmpeq_epi64(m, targets));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t c = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c += mod.Reduce(h) == reports[r].value;
  }
  return c;
}

// ---------------------------------------------------------------------------
// AVX-512 backend: 8 × 64-bit lanes with the instructions AVX2 lacks —
// native 64-bit multiply (VPMULLQ, AVX-512DQ) and rotate (VPROLQ), plus
// compare-to-mask feeding a masked subtract for the accumulators. The
// whole avalanche is ~12 instructions per 8 pairs.
// ---------------------------------------------------------------------------

/// Vector constants for the 512-bit kernels.
struct Avx512Ctx {
  __m512i p1, p2, p3, p4;
  __m512i mask32;
  bool pow2;
  __m512i mod_mask;
  __m512i magic, magic_hi, d;
  int shift;
};

__attribute__((target("avx512f,avx512dq"))) Avx512Ctx MakeAvx512Ctx(
    const SupportModulus& mod) {
  Avx512Ctx c;
  c.p1 = _mm512_set1_epi64(static_cast<long long>(kP1));
  c.p2 = _mm512_set1_epi64(static_cast<long long>(kP2));
  c.p3 = _mm512_set1_epi64(static_cast<long long>(kP3));
  c.p4 = _mm512_set1_epi64(static_cast<long long>(kP4));
  c.mask32 = _mm512_set1_epi64(0xFFFFFFFFll);
  c.pow2 = mod.mask != 0;
  c.mod_mask = _mm512_set1_epi64(static_cast<long long>(mod.mask));
  c.magic = _mm512_set1_epi64(static_cast<long long>(mod.magic));
  c.magic_hi = _mm512_set1_epi64(static_cast<long long>(mod.magic >> 32));
  c.d = _mm512_set1_epi64(static_cast<long long>(mod.d));
  c.shift = static_cast<int>(mod.shift);
  return c;
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i FinishHash8(
    __m512i h0, __m512i k1, const Avx512Ctx& c) {
  __m512i h = _mm512_xor_si512(h0, k1);
  h = _mm512_rol_epi64(h, 27);
  h = _mm512_add_epi64(_mm512_mullo_epi64(h, c.p1), c.p4);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
  h = _mm512_mullo_epi64(h, c.p2);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
  h = _mm512_mullo_epi64(h, c.p3);
  h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 32));
  return h;
}

/// x % d' over 8 lanes. AVX-512 still has no 64-bit mulhi, so the magic
/// divide keeps the VPMULUDQ cross-term synthesis.
__attribute__((target("avx512f,avx512dq"))) inline __m512i Mod8(
    __m512i x, const Avx512Ctx& c) {
  if (c.pow2) return _mm512_and_si512(x, c.mod_mask);
  __m512i x_hi = _mm512_srli_epi64(x, 32);
  __m512i lolo = _mm512_mul_epu32(x, c.magic);
  __m512i hilo = _mm512_mul_epu32(x_hi, c.magic);
  __m512i lohi = _mm512_mul_epu32(x, c.magic_hi);
  __m512i hihi = _mm512_mul_epu32(x_hi, c.magic_hi);
  __m512i cross = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_srli_epi64(lolo, 32),
                       _mm512_and_si512(hilo, c.mask32)),
      _mm512_and_si512(lohi, c.mask32));
  __m512i q = _mm512_add_epi64(
      _mm512_add_epi64(hihi, _mm512_srli_epi64(hilo, 32)),
      _mm512_add_epi64(_mm512_srli_epi64(lohi, 32),
                       _mm512_srli_epi64(cross, 32)));
  __m512i t = _mm512_add_epi64(
      _mm512_srli_epi64(_mm512_sub_epi64(x, q), 1), q);
  q = _mm512_srli_epi64(t, c.shift);
  return _mm512_sub_epi64(x, _mm512_mullo_epi64(q, c.d));
}

__attribute__((target("avx512f,avx512dq"))) void AccumulateAvx512(
    const LdpReport* reports, size_t count, uint64_t value_lo,
    uint64_t value_hi, const SupportModulus& mod, uint64_t* counts) {
  const Avx512Ctx ctx = MakeAvx512Ctx(mod);
  const __m512i neg1 = _mm512_set1_epi64(-1);
  alignas(64) uint64_t k1[kValueTile];
  for (size_t rlo = 0; rlo < count; rlo += kReportTile) {
    const size_t rhi = rlo + std::min(kReportTile, count - rlo);
    for (uint64_t vlo = value_lo; vlo < value_hi; vlo += kValueTile) {
      const uint64_t vhi =
          vlo + std::min<uint64_t>(kValueTile, value_hi - vlo);
      const size_t vn = vhi - vlo;
      for (size_t j = 0; j < vn; ++j) k1[j] = KeyRound(vlo + j);

      size_t j = 0;
      // 16 values per pass (two independent 8-lane chains); per-value
      // counts ride in vector accumulators across the report tile
      // (≤ 2048, no overflow) and flush once. acc − (−1) adds 1 in the
      // lanes the compare mask selects.
      for (; j + 16 <= vn; j += 16) {
        const __m512i k1a = _mm512_load_si512(k1 + j);
        const __m512i k1b = _mm512_load_si512(k1 + j + 8);
        __m512i acc_a = _mm512_setzero_si512();
        __m512i acc_b = _mm512_setzero_si512();
        for (size_t r = rlo; r < rhi; ++r) {
          const __m512i h0 = _mm512_set1_epi64(
              static_cast<long long>(reports[r].seed + kSeedBias));
          const __m512i target = _mm512_set1_epi64(
              static_cast<long long>(reports[r].value));
          const __mmask8 ma = _mm512_cmpeq_epu64_mask(
              Mod8(FinishHash8(h0, k1a, ctx), ctx), target);
          const __mmask8 mb = _mm512_cmpeq_epu64_mask(
              Mod8(FinishHash8(h0, k1b, ctx), ctx), target);
          acc_a = _mm512_mask_sub_epi64(acc_a, ma, acc_a, neg1);
          acc_b = _mm512_mask_sub_epi64(acc_b, mb, acc_b, neg1);
        }
        uint64_t* out = counts + (vlo - value_lo) + j;
        _mm512_storeu_si512(
            out, _mm512_add_epi64(_mm512_loadu_si512(out), acc_a));
        _mm512_storeu_si512(
            out + 8, _mm512_add_epi64(_mm512_loadu_si512(out + 8), acc_b));
      }
      for (; j + 8 <= vn; j += 8) {
        const __m512i k1a = _mm512_load_si512(k1 + j);
        __m512i acc = _mm512_setzero_si512();
        for (size_t r = rlo; r < rhi; ++r) {
          const __m512i h0 = _mm512_set1_epi64(
              static_cast<long long>(reports[r].seed + kSeedBias));
          const __m512i target = _mm512_set1_epi64(
              static_cast<long long>(reports[r].value));
          const __mmask8 m = _mm512_cmpeq_epu64_mask(
              Mod8(FinishHash8(h0, k1a, ctx), ctx), target);
          acc = _mm512_mask_sub_epi64(acc, m, acc, neg1);
        }
        uint64_t* out = counts + (vlo - value_lo) + j;
        _mm512_storeu_si512(
            out, _mm512_add_epi64(_mm512_loadu_si512(out), acc));
      }
      // Scalar tail values (< 8): same math, bitwise identical.
      for (; j < vn; ++j) {
        uint64_t c = 0;
        for (size_t r = rlo; r < rhi; ++r) {
          const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1[j]);
          c += mod.Reduce(h) == reports[r].value;
        }
        counts[vlo - value_lo + j] += c;
      }
    }
  }
}

__attribute__((target("avx512f,avx512dq"))) uint64_t CountAvx512(
    const LdpReport* reports, size_t count, uint64_t value,
    const SupportModulus& mod) {
  const Avx512Ctx ctx = MakeAvx512Ctx(mod);
  const __m512i neg1 = _mm512_set1_epi64(-1);
  const uint64_t k1 = KeyRound(value);
  const __m512i k1v = _mm512_set1_epi64(static_cast<long long>(k1));
  const __m512i bias = _mm512_set1_epi64(static_cast<long long>(kSeedBias));
  __m512i acc = _mm512_setzero_si512();
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const __m512i rep = _mm512_loadu_si512(reports + r);
    const __m512i seeds = _mm512_and_si512(rep, ctx.mask32);
    const __m512i targets = _mm512_srli_epi64(rep, 32);
    const __m512i h0 = _mm512_add_epi64(seeds, bias);
    const __mmask8 m = _mm512_cmpeq_epu64_mask(
        Mod8(FinishHash8(h0, k1v, ctx), ctx), targets);
    acc = _mm512_mask_sub_epi64(acc, m, acc, neg1);
  }
  uint64_t c = _mm512_reduce_add_epi64(acc);
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c += mod.Reduce(h) == reports[r].value;
  }
  return c;
}

#else  // !SHUFFLEDP_SUPPORT_AVX2_COMPILED

void AccumulateAvx2(const LdpReport*, size_t, uint64_t, uint64_t,
                    const SupportModulus&, uint64_t*) {
  assert(false && "AVX2 support backend selected on a host without AVX2");
}

uint64_t CountAvx2(const LdpReport*, size_t, uint64_t,
                   const SupportModulus&) {
  assert(false && "AVX2 support backend selected on a host without AVX2");
  return 0;
}

void AccumulateAvx512(const LdpReport*, size_t, uint64_t, uint64_t,
                      const SupportModulus&, uint64_t*) {
  assert(false && "AVX-512 support backend selected on a non-x86 host");
}

uint64_t CountAvx512(const LdpReport*, size_t, uint64_t,
                     const SupportModulus&) {
  assert(false && "AVX-512 support backend selected on a non-x86 host");
  return 0;
}

#endif  // SHUFFLEDP_SUPPORT_AVX2_COMPILED

}  // namespace

SupportModulus::SupportModulus(uint32_t d_in) {
  assert(d_in >= 2);
  d = d_in;
  shift = 63u - static_cast<unsigned>(__builtin_clzll(d));
  if ((d & (d - 1)) == 0) {
    mask = d - 1;
    return;
  }
  // Branch-free round-up magic (libdivide's u64 scheme): the true
  // multiplier M = 2·⌊2^(64+s)/d⌋ + 1 (+1 when 2·rem ≥ d) lives in
  // (2^64, 2^65); `magic` stores M − 2^64 and Reduce() recovers the
  // missing high bit with the ((x − q) >> 1) + q step.
  const unsigned __int128 num = static_cast<unsigned __int128>(1)
                                << (64 + shift);
  const uint64_t m0 = static_cast<uint64_t>(num / d);
  const uint64_t rem = static_cast<uint64_t>(num % d);
  magic = 2 * m0 + 1 + (2 * rem >= d ? 1 : 0);
}

SupportBackend BestSupportBackend() {
  if (const char* v = std::getenv("SHUFFLEDP_SUPPORT_BACKEND")) {
    if (std::strcmp(v, "scalar") == 0) return SupportBackend::kScalar;
    if (std::strcmp(v, "portable") == 0) return SupportBackend::kPortable;
    const CpuFeatures& host = HostCpuFeatures();
    if (std::strcmp(v, "avx2") == 0) {
      return HasAvx2(host) ? SupportBackend::kAvx2 : SupportBackend::kPortable;
    }
    if (std::strcmp(v, "avx512") == 0) {
      if (HasAvx512(host)) return SupportBackend::kAvx512;
      return HasAvx2(host) ? SupportBackend::kAvx2 : SupportBackend::kPortable;
    }
    // Unrecognized values fall through to auto-detection.
  }
  const CpuFeatures& cpu = KernelCpuFeatures();
  if (HasAvx512(cpu)) return SupportBackend::kAvx512;
  return HasAvx2(cpu) ? SupportBackend::kAvx2 : SupportBackend::kPortable;
}

SupportBackend ActiveSupportBackend() { return BackendOverride(); }

SupportBackend SetSupportBackend(SupportBackend backend) {
  const CpuFeatures& cpu = KernelCpuFeatures();
  if (backend == SupportBackend::kAvx512 && !HasAvx512(cpu)) {
    backend = SupportBackend::kAvx2;
  }
  if (backend == SupportBackend::kAvx2 && !HasAvx2(cpu)) {
    backend = SupportBackend::kPortable;
  }
  BackendOverride() = backend;
  return backend;
}

const char* SupportBackendName(SupportBackend backend) {
  switch (backend) {
    case SupportBackend::kScalar:
      return "scalar";
    case SupportBackend::kPortable:
      return "portable";
    case SupportBackend::kAvx2:
      return "avx2";
    case SupportBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void AccumulateLocalHashSupports(const LdpReport* reports, size_t count,
                                 uint64_t value_lo, uint64_t value_hi,
                                 uint32_t d_prime, uint64_t* counts) {
  if (count == 0 || value_lo >= value_hi) return;
  const SupportModulus mod(d_prime);
  if (ActiveSupportBackend() == SupportBackend::kAvx512) {
    AccumulateAvx512(reports, count, value_lo, value_hi, mod, counts);
  } else if (ActiveSupportBackend() == SupportBackend::kAvx2) {
    AccumulateAvx2(reports, count, value_lo, value_hi, mod, counts);
  } else if (mod.mask != 0) {
    AccumulatePortable<true>(reports, count, value_lo, value_hi, mod,
                             counts);
  } else {
    AccumulatePortable<false>(reports, count, value_lo, value_hi, mod,
                              counts);
  }
}

uint64_t CountLocalHashSupports(const LdpReport* reports, size_t count,
                                uint64_t value, uint32_t d_prime) {
  if (count == 0) return 0;
  const SupportModulus mod(d_prime);
  if (ActiveSupportBackend() == SupportBackend::kAvx512) {
    return CountAvx512(reports, count, value, mod);
  }
  if (ActiveSupportBackend() == SupportBackend::kAvx2) {
    return CountAvx2(reports, count, value, mod);
  }
  return mod.mask != 0 ? CountPortable<true>(reports, count, value, mod)
                       : CountPortable<false>(reports, count, value, mod);
}

}  // namespace ldp
}  // namespace shuffledp
