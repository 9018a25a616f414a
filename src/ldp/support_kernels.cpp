// Bulk support-evaluation kernels — see support_kernels.h for the design.
//
// Layout notes shared by the three tiers:
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
//  * `% d' == value` must be bitwise the `%` operator (protocol semantics
//    shared with the client Encode). Powers of two compare under a mask;
//    general d' runs SupportModulus's divisibility predicate, whose
//    `value < d'` term is hoisted per report in Accumulate* and computed
//    per lane in Count*. tests/ldp/support_kernel_test.cpp pins Matches()
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
// independent dependency chains fill the scalar multiplier, no divide.
// The modulus comes by value so its fields stay in registers.
// ---------------------------------------------------------------------------

template <bool kPow2>
inline bool Match(const SupportModulus& mod, uint64_t h, uint64_t y) {
  return kPow2 ? (h & mod.mask) == y : mod.Matches(h, y);
}

template <bool kPow2>
void AccumulatePortable(const LdpReport* reports, size_t count,
                        uint64_t value_lo, uint64_t value_hi,
                        SupportModulus mod, uint64_t* counts) {
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
          const uint64_t y = reports[r].value;
          c0 += Match<kPow2>(mod, FinishHash(h0, k1[j + 0]), y);
          c1 += Match<kPow2>(mod, FinishHash(h0, k1[j + 1]), y);
          c2 += Match<kPow2>(mod, FinishHash(h0, k1[j + 2]), y);
          c3 += Match<kPow2>(mod, FinishHash(h0, k1[j + 3]), y);
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
          c += Match<kPow2>(mod, h, reports[r].value);
        }
        counts[vlo - value_lo + j] += c;
      }
    }
  }
}

template <bool kPow2>
uint64_t CountPortable(const LdpReport* reports, size_t count, uint64_t value,
                       SupportModulus mod) {
  const uint64_t k1 = KeyRound(value);
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    c0 += Match<kPow2>(mod, FinishHash(reports[r + 0].seed + kSeedBias, k1),
                       reports[r + 0].value);
    c1 += Match<kPow2>(mod, FinishHash(reports[r + 1].seed + kSeedBias, k1),
                       reports[r + 1].value);
    c2 += Match<kPow2>(mod, FinishHash(reports[r + 2].seed + kSeedBias, k1),
                       reports[r + 2].value);
    c3 += Match<kPow2>(mod, FinishHash(reports[r + 3].seed + kSeedBias, k1),
                       reports[r + 3].value);
  }
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c0 += Match<kPow2>(mod, h, reports[r].value);
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

/// Vector constants one kernel invocation needs; built once per call.
struct Avx2Ctx {
  __m256i p1, p1_hi, p2, p2_hi, p3, p3_hi, p4;
  __m256i mask32;
  bool pow2;
  __m256i mod_mask;             // pow2: d' − 1
  __m256i inv, inv_hi, d;       // general: the divisibility predicate
  __m256i sign, limit_x;        // AVX2 compares are signed: flip bit 63
  __m128i tz, tz_left;          // rotate right by tz = srl tz | sll 64 − tz
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
  c.inv = _mm256_set1_epi64x(static_cast<long long>(mod.inv));
  c.inv_hi = _mm256_set1_epi64x(static_cast<long long>(mod.inv >> 32));
  c.d = _mm256_set1_epi64x(static_cast<long long>(mod.d));
  c.sign = _mm256_set1_epi64x(static_cast<long long>(uint64_t{1} << 63));
  c.limit_x = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(mod.limit)), c.sign);
  c.tz = _mm_cvtsi32_si128(static_cast<int>(mod.tz));
  c.tz_left = _mm_cvtsi32_si128(static_cast<int>(64 - mod.tz));
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

/// −1 in the lanes where h % d' == y, else 0 (SupportModulus::Matches
/// over 4 lanes). The y-only terms are common subexpressions, so the
/// Accumulate loop computes them once per report.
__attribute__((target("avx2"))) inline __m256i Hits4(__m256i h, __m256i y,
                                                     const Avx2Ctx& c) {
  if (c.pow2) return _mm256_cmpeq_epi64(_mm256_and_si256(h, c.mod_mask), y);
  // y < 2^32, so the signed compare is the unsigned one.
  const __m256i valid = _mm256_cmpgt_epi64(c.d, y);
  const __m256i x = MulLo64Const(_mm256_sub_epi64(h, y), c.inv, c.inv_hi);
  // A shift by 64 zeroes the lane, so odd d' (tz = 0) rotates by 0.
  const __m256i r = _mm256_or_si256(_mm256_srl_epi64(x, c.tz),
                                    _mm256_sll_epi64(x, c.tz_left));
  const __m256i over =
      _mm256_cmpgt_epi64(_mm256_xor_si256(r, c.sign), c.limit_x);
  const __m256i below = _mm256_cmpgt_epi64(_mm256_xor_si256(y, c.sign),
                                           _mm256_xor_si256(h, c.sign));
  return _mm256_andnot_si256(below, _mm256_andnot_si256(over, valid));
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
          const __m256i y = _mm256_set1_epi64x(
              static_cast<long long>(reports[r].value));
          // Hit lanes are 0 / −1: subtracting adds 0 / 1.
          acc_a = _mm256_sub_epi64(acc_a,
                                   Hits4(FinishHash4(h0, k1a, ctx), y, ctx));
          acc_b = _mm256_sub_epi64(acc_b,
                                   Hits4(FinishHash4(h0, k1b, ctx), y, ctx));
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
          c += mod.Matches(h, reports[r].value);
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
    const __m256i y = _mm256_srli_epi64(rep, 32);
    const __m256i h0 = _mm256_add_epi64(seeds, bias);
    acc = _mm256_sub_epi64(acc, Hits4(FinishHash4(h0, k1v, ctx), y, ctx));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t c = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c += mod.Matches(h, reports[r].value);
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
  __m512i inv, tz, limit, d;
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
  c.inv = _mm512_set1_epi64(static_cast<long long>(mod.inv));
  c.tz = _mm512_set1_epi64(mod.tz);
  c.limit = _mm512_set1_epi64(static_cast<long long>(mod.limit));
  c.d = _mm512_set1_epi64(static_cast<long long>(mod.d));
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

/// The lanes where h % d' == y (SupportModulus::Matches over 8 lanes).
/// `y < d'` is a common subexpression: once per report in Accumulate.
__attribute__((target("avx512f,avx512dq"))) inline __mmask8 Hits8(
    __m512i h, __m512i y, const Avx512Ctx& c) {
  if (c.pow2) {
    return _mm512_cmpeq_epu64_mask(_mm512_and_si512(h, c.mod_mask), y);
  }
  const __m512i r = _mm512_rorv_epi64(
      _mm512_mullo_epi64(_mm512_sub_epi64(h, y), c.inv), c.tz);
  const __mmask8 valid = _mm512_cmplt_epu64_mask(y, c.d);
  return _mm512_mask_cmple_epu64_mask(
      _mm512_mask_cmpge_epu64_mask(valid, h, y), r, c.limit);
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
          const __m512i y = _mm512_set1_epi64(
              static_cast<long long>(reports[r].value));
          const __mmask8 ma = Hits8(FinishHash8(h0, k1a, ctx), y, ctx);
          const __mmask8 mb = Hits8(FinishHash8(h0, k1b, ctx), y, ctx);
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
          const __m512i y = _mm512_set1_epi64(
              static_cast<long long>(reports[r].value));
          const __mmask8 m = Hits8(FinishHash8(h0, k1a, ctx), y, ctx);
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
          c += mod.Matches(h, reports[r].value);
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
    const __m512i y = _mm512_srli_epi64(rep, 32);
    const __m512i h0 = _mm512_add_epi64(seeds, bias);
    const __mmask8 m = Hits8(FinishHash8(h0, k1v, ctx), y, ctx);
    acc = _mm512_mask_sub_epi64(acc, m, acc, neg1);
  }
  uint64_t c = _mm512_reduce_add_epi64(acc);
  for (; r < count; ++r) {
    const uint64_t h = FinishHash(reports[r].seed + kSeedBias, k1);
    c += mod.Matches(h, reports[r].value);
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
  tz = static_cast<unsigned>(__builtin_ctzll(d));
  if ((d & (d - 1)) == 0) mask = d - 1;
  // Newton's iteration doubles the correct low bits of an odd inverse;
  // odd · odd ≡ 1 (mod 8) seeds 3 bits, so five steps reach 64.
  const uint64_t odd = d >> tz;
  inv = odd;
  for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
  limit = ~uint64_t{0} / d;
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
