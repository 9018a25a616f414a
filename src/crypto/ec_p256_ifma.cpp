// 8-lane AVX-512 IFMA P-256 kernels (Gueron & Krasnov, "Fast prime field
// elliptic-curve cryptography with 256-bit primes", J. Cryptogr. Eng.
// 2015; and "Accelerating big integer arithmetic using Intel IFMA
// extensions", ARITH 2016).
//
// Each __m512i holds one 52-bit limb of eight independent field elements,
// and vpmadd52{lo,hi}uq multiply 52-bit limbs into 64-bit accumulators.
// A field element is five limbs in the Montgomery domain R = 2^260.
// p = -1 mod 2^52, so -p^-1 mod 2^52 = 1, and p's third limb is zero:
// each of the five reduction steps takes the low limb as its multiplier
// and needs three limb products (p1, p3, p4); p0 = 2^52 - 1 folds into
// one addition.
//
// Values stay below 2^257 (not canonical) between operations:
//  * Mul takes inputs below 2^258 and returns (a*b + m*p) / 2^260 <
//    2^256 + p < 2^257 with normalized limbs.
//  * Add, Sub and small multiples form a limb-wise result V in [0, 2^260)
//    and Reduce folds q = floor(V / 2^256) <= 15 back in as V - q*p,
//    which is in [0, 2^256 + 15 * 2^224).
// Only the batch edges convert to and from the portable 4x64 domain, and
// the way out ends in a canonical subtraction, so every output is the
// exact value the portable code computes.
//
// Constant time by construction: all eight lanes run one instruction
// stream, digits turn into lane masks by vector compares, table entries
// are picked by a full masked scan, and infinity or zero-digit cases are
// blends. The schedules and the exceptional-case proofs are the portable
// ones (see ec_p256.cpp).
//
// This is a separate translation unit so the target("avx512ifma")
// functions never perturb the portable field's code generation.

#include "crypto/ec_p256_ifma.h"

#include <algorithm>
#include <cstdlib>

#if defined(__x86_64__)
#include <immintrin.h>
#define SHUFFLEDP_P256_IFMA_COMPILED 1
#else
#define SHUFFLEDP_P256_IFMA_COMPILED 0
#endif

namespace shuffledp {
namespace crypto {
namespace p256_ifma {

#if SHUFFLEDP_P256_IFMA_COMPILED

namespace {

#define SHUFFLEDP_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#define SHUFFLEDP_IFMA_INLINE \
  SHUFFLEDP_IFMA_TARGET inline __attribute__((always_inline))

using u64 = uint64_t;

constexpr int kLanes = 8;
constexpr u64 kMask52 = (u64{1} << 52) - 1;

// p and 4p in 52-bit limbs.
constexpr u64 kP52[5] = {0xFFFFFFFFFFFFF, 0xFFFFFFFFFFF, 0x0, 0x1000000000,
                         0xFFFFFFFF0000};
constexpr u64 k4P52[5] = {0xFFFFFFFFFFFFC, 0x3FFFFFFFFFFF, 0x0, 0x4000000000,
                          0x3FFFFFFFC0000};
// 2^264 mod p: Mul by it moves a value from R = 2^256 to R = 2^260.
constexpr u64 kTo260[5] = {0x100, 0x0, 0xFFFFFFFFFFFFF, 0xFEFFFFFFFFFFF,
                           0xFFFFFF};
// 2^256 mod p: Mul by it moves a value from R = 2^260 back to R = 2^256.
constexpr u64 kTo256[5] = {0x1, 0xFF00000000000, 0xFFFFFFFFFFFFF,
                           0xFFFEFFFFFFFFF, 0xFFFF};
// 2^260 mod p: one in this domain.
constexpr u64 kOne260[5] = {0x10, 0xF000000000000, 0xFFFFFFFFFFFFF,
                            0xFFEFFFFFFFFFF, 0xFFFFF};

struct F {
  __m512i l[5];
};

struct J {
  F x, y, z;
};

struct A {
  F x, y;
};

SHUFFLEDP_IFMA_INLINE __m512i Bc(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// Shifts by an immediate through GCC vector extensions: the
// _mm512_s{l,r}{l,a}i_epi64 intrinsics trip -Wuninitialized in GCC 12.
typedef u64 V8u __attribute__((vector_size(64)));
typedef int64_t V8s __attribute__((vector_size(64)));

SHUFFLEDP_IFMA_INLINE __m512i Srli(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<V8u>(a) >> n);
}

SHUFFLEDP_IFMA_INLINE __m512i Srai(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<V8s>(a) >> n);
}

SHUFFLEDP_IFMA_INLINE __m512i Slli(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<V8u>(a) << n);
}

SHUFFLEDP_IFMA_INLINE F Const(const u64 limbs[5]) {
  F f;
  for (int i = 0; i < 5; ++i) f.l[i] = Bc(limbs[i]);
  return f;
}

SHUFFLEDP_IFMA_INLINE F Zero() {
  F f;
  for (int i = 0; i < 5; ++i) f.l[i] = _mm512_setzero_si512();
  return f;
}

// Montgomery product a * b / 2^260 mod p (almost: below 2^257).
SHUFFLEDP_IFMA_INLINE F Mul(const F& a, const F& b) {
  const __m512i mask = Bc(kMask52);
  const __m512i p1 = Bc(kP52[1]);
  const __m512i p3 = Bc(kP52[3]);
  const __m512i p4 = Bc(kP52[4]);
  __m512i t0 = _mm512_setzero_si512(), t1 = t0, t2 = t0, t3 = t0, t4 = t0,
          t5 = t0;
  for (int i = 0; i < 5; ++i) {
    const __m512i bi = b.l[i];
    t0 = _mm512_madd52lo_epu64(t0, a.l[0], bi);
    t1 = _mm512_madd52hi_epu64(t1, a.l[0], bi);
    t1 = _mm512_madd52lo_epu64(t1, a.l[1], bi);
    t2 = _mm512_madd52hi_epu64(t2, a.l[1], bi);
    t2 = _mm512_madd52lo_epu64(t2, a.l[2], bi);
    t3 = _mm512_madd52hi_epu64(t3, a.l[2], bi);
    t3 = _mm512_madd52lo_epu64(t3, a.l[3], bi);
    t4 = _mm512_madd52hi_epu64(t4, a.l[3], bi);
    t4 = _mm512_madd52lo_epu64(t4, a.l[4], bi);
    t5 = _mm512_madd52hi_epu64(t5, a.l[4], bi);
    // m = t0 mod 2^52. m * p0 = m * 2^52 - m, so adding it clears t0's
    // low limb and carries (t0 >> 52) + m into t1.
    const __m512i m = _mm512_and_si512(t0, mask);
    t1 = _mm512_add_epi64(t1, _mm512_add_epi64(Srli(t0, 52), m));
    t1 = _mm512_madd52lo_epu64(t1, m, p1);
    t2 = _mm512_madd52hi_epu64(t2, m, p1);
    t3 = _mm512_madd52lo_epu64(t3, m, p3);
    t4 = _mm512_madd52hi_epu64(t4, m, p3);
    t4 = _mm512_madd52lo_epu64(t4, m, p4);
    t5 = _mm512_madd52hi_epu64(t5, m, p4);
    t0 = t1;
    t1 = t2;
    t2 = t3;
    t3 = t4;
    t4 = t5;
    t5 = _mm512_setzero_si512();
  }
  t1 = _mm512_add_epi64(t1, Srli(t0, 52));
  t2 = _mm512_add_epi64(t2, Srli(t1, 52));
  t3 = _mm512_add_epi64(t3, Srli(t2, 52));
  t4 = _mm512_add_epi64(t4, Srli(t3, 52));
  return F{{_mm512_and_si512(t0, mask), _mm512_and_si512(t1, mask),
            _mm512_and_si512(t2, mask), _mm512_and_si512(t3, mask), t4}};
}

// Signed carry propagation: limbs 0..3 end in [0, 2^52), limb 4 takes
// the rest.
SHUFFLEDP_IFMA_INLINE void Carry(__m512i* l) {
  const __m512i mask = Bc(kMask52);
  for (int i = 0; i < 4; ++i) {
    l[i + 1] = _mm512_add_epi64(l[i + 1], Srai(l[i], 52));
    l[i] = _mm512_and_si512(l[i], mask);
  }
}

// Brings a limb-wise value V in [0, 2^260) below 2^257: V - q*p with
// q = floor(V / 2^256), where q*p = q*2^256 - q*2^224 + q*2^192 +
// q*2^96 - q.
SHUFFLEDP_IFMA_INLINE F Reduce(F v) {
  Carry(v.l);
  const __m512i q = Srli(v.l[4], 48);
  v.l[4] = _mm512_add_epi64(_mm512_and_si512(v.l[4], Bc((u64{1} << 48) - 1)),
                            Slli(q, 16));
  v.l[3] = _mm512_sub_epi64(v.l[3], Slli(q, 36));
  v.l[1] = _mm512_sub_epi64(v.l[1], Slli(q, 44));
  v.l[0] = _mm512_add_epi64(v.l[0], q);
  Carry(v.l);
  return v;
}

SHUFFLEDP_IFMA_INLINE F Add(const F& a, const F& b) {
  F r;
  for (int i = 0; i < 5; ++i) r.l[i] = _mm512_add_epi64(a.l[i], b.l[i]);
  return Reduce(r);
}

// a - b + 4p: 4p exceeds every operand, so the value stays positive.
SHUFFLEDP_IFMA_INLINE F Sub(const F& a, const F& b) {
  F r;
  for (int i = 0; i < 5; ++i) {
    r.l[i] = _mm512_add_epi64(_mm512_sub_epi64(a.l[i], b.l[i]), Bc(k4P52[i]));
  }
  return Reduce(r);
}

SHUFFLEDP_IFMA_INLINE F Neg(const F& a) {
  F r;
  for (int i = 0; i < 5; ++i) r.l[i] = _mm512_sub_epi64(Bc(k4P52[i]), a.l[i]);
  return Reduce(r);
}

// a * 2^s for s in [1, 3] (8a < 2^260).
SHUFFLEDP_IFMA_INLINE F Shl(const F& a, int s) {
  F r;
  for (int i = 0; i < 5; ++i) r.l[i] = Slli(a.l[i], s);
  return Reduce(r);
}

SHUFFLEDP_IFMA_INLINE F Times3(const F& a) {
  F r;
  for (int i = 0; i < 5; ++i) {
    r.l[i] = _mm512_add_epi64(Slli(a.l[i], 1), a.l[i]);
  }
  return Reduce(r);
}

// Lanes set in `k` take b, the others a.
SHUFFLEDP_IFMA_INLINE F Blend(__mmask8 k, const F& a, const F& b) {
  F r;
  for (int i = 0; i < 5; ++i) {
    r.l[i] = _mm512_mask_blend_epi64(k, a.l[i], b.l[i]);
  }
  return r;
}

// Doubling with a = -3 (dbl-2001-b), z3 = 2yz. Infinity (z = 0) stays
// z = 0 (mod p).
SHUFFLEDP_IFMA_INLINE J Dbl(const J& p) {
  const F delta = Mul(p.z, p.z);
  const F gamma = Mul(p.y, p.y);
  const F beta = Mul(p.x, gamma);
  const F alpha = Times3(Mul(Sub(p.x, delta), Add(p.x, delta)));
  const F beta4 = Shl(beta, 2);
  J out;
  out.x = Sub(Mul(alpha, alpha), Shl(beta, 3));
  out.z = Shl(Mul(p.y, p.z), 1);
  out.y = Sub(Mul(alpha, Sub(beta4, out.x)), Shl(Mul(gamma, gamma), 3));
  return out;
}

// Mixed addition a + b (b affine), no exceptional cases: a must be
// neither infinity nor +-b.
SHUFFLEDP_IFMA_INLINE J MAdd(const J& a, const A& b) {
  const F z1z1 = Mul(a.z, a.z);
  const F u2 = Mul(b.x, z1z1);
  const F s2 = Mul(Mul(b.y, a.z), z1z1);
  const F h = Sub(u2, a.x);
  const F r = Sub(s2, a.y);
  const F hh = Mul(h, h);
  const F hhh = Mul(hh, h);
  const F v = Mul(a.x, hh);
  J out;
  out.x = Sub(Sub(Mul(r, r), hhh), Shl(v, 1));
  out.y = Sub(Mul(r, Sub(v, out.x)), Mul(a.y, hhh));
  out.z = Mul(a.z, h);
  return out;
}

// Jacobian addition a + b, no exceptional cases: neither is infinity and
// a != +-b.
SHUFFLEDP_IFMA_INLINE J JAdd(const J& a, const J& b) {
  const F z1z1 = Mul(a.z, a.z);
  const F z2z2 = Mul(b.z, b.z);
  const F u1 = Mul(a.x, z2z2);
  const F u2 = Mul(b.x, z1z1);
  const F s1 = Mul(Mul(a.y, b.z), z2z2);
  const F s2 = Mul(Mul(b.y, a.z), z1z1);
  const F h = Sub(u2, u1);
  const F r = Sub(s2, s1);
  const F hh = Mul(h, h);
  const F hhh = Mul(hh, h);
  const F v = Mul(u1, hh);
  J out;
  out.x = Sub(Sub(Mul(r, r), hhh), Shl(v, 1));
  out.y = Sub(Mul(r, Sub(v, out.x)), Mul(s1, hhh));
  out.z = Mul(Mul(a.z, b.z), h);
  return out;
}

// acc + e where the lane has started and its digit is nonzero, e where it
// has not started, acc where the digit is zero.
SHUFFLEDP_IFMA_INLINE J Accumulate(const J& acc, const J& sum, const J& e,
                                   __mmask8 started, __mmask8 nonzero) {
  const __mmask8 take_sum = started & nonzero;
  const __mmask8 take_e = static_cast<__mmask8>(~started & nonzero);
  J out;
  out.x = Blend(take_sum, Blend(take_e, acc.x, e.x), sum.x);
  out.y = Blend(take_sum, Blend(take_e, acc.y, e.y), sum.y);
  out.z = Blend(take_sum, Blend(take_e, acc.z, e.z), sum.z);
  return out;
}

// Loads lane l's 4x64 value from src[l] (R = 2^256, canonical) into this
// domain.
SHUFFLEDP_IFMA_TARGET F LoadLanes(const Scalar256* const src[kLanes]) {
  alignas(64) u64 limbs[5][kLanes];
  for (int l = 0; l < kLanes; ++l) {
    const Scalar256& v = *src[l];
    limbs[0][l] = v[0] & kMask52;
    limbs[1][l] = ((v[0] >> 52) | (v[1] << 12)) & kMask52;
    limbs[2][l] = ((v[1] >> 40) | (v[2] << 24)) & kMask52;
    limbs[3][l] = ((v[2] >> 28) | (v[3] << 36)) & kMask52;
    limbs[4][l] = v[3] >> 16;
  }
  F f;
  for (int i = 0; i < 5; ++i) f.l[i] = _mm512_load_si512(limbs[i]);
  return Mul(f, Const(kTo260));
}

// The inverse of LoadLanes: canonical 4x64 values with R = 2^256.
SHUFFLEDP_IFMA_TARGET void StoreLanes(const F& f,
                                      Scalar256* const dst[kLanes]) {
  F v = Mul(f, Const(kTo256));  // below p + 2^221 < 2p
  F t;
  for (int i = 0; i < 5; ++i) t.l[i] = _mm512_sub_epi64(v.l[i], Bc(kP52[i]));
  Carry(t.l);
  const __mmask8 below_p =
      _mm512_cmplt_epi64_mask(t.l[4], _mm512_setzero_si512());
  v = Blend(below_p, t, v);
  alignas(64) u64 limbs[5][kLanes];
  for (int i = 0; i < 5; ++i) _mm512_store_si512(limbs[i], v.l[i]);
  for (int l = 0; l < kLanes; ++l) {
    Scalar256& out = *dst[l];
    out[0] = limbs[0][l] | (limbs[1][l] << 52);
    out[1] = (limbs[1][l] >> 12) | (limbs[2][l] << 40);
    out[2] = (limbs[2][l] >> 24) | (limbs[3][l] << 28);
    out[3] = (limbs[3][l] >> 36) | (limbs[4][l] << 16);
  }
}

SHUFFLEDP_IFMA_TARGET void StoreJacobian(const J& p,
                                         Jacobian* const dst[kLanes]) {
  Scalar256* xs[kLanes];
  Scalar256* ys[kLanes];
  Scalar256* zs[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    xs[l] = &dst[l]->x;
    ys[l] = &dst[l]->y;
    zs[l] = &dst[l]->z;
  }
  StoreLanes(p.x, xs);
  StoreLanes(p.y, ys);
  StoreLanes(p.z, zs);
}

// Eight lanes of BoothMultJ (ec_p256.cpp): each lane its own point, one
// digit schedule.
SHUFFLEDP_IFMA_TARGET void ScalarMult8(const int8_t booth[kBoothDigits],
                                       const Affine* const pts[kLanes],
                                       Jacobian* const dst[kLanes]) {
  const Scalar256* xs[kLanes];
  const Scalar256* ys[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    xs[l] = &pts[l]->x;
    ys[l] = &pts[l]->y;
  }
  const A p{LoadLanes(xs), LoadLanes(ys)};

  // table[i] = (i + 1) P: odd multiples by a mixed addition of P, even
  // ones by doubling. m P is never +-P or infinity for m in [2, 16].
  J table[16];
  table[0] = J{p.x, p.y, Const(kOne260)};
  for (int m = 2; m <= 16; ++m) {
    table[m - 1] = m % 2 == 0 ? Dbl(table[m / 2 - 1]) : MAdd(table[m - 2], p);
  }

  const __m512i zero = _mm512_setzero_si512();
  J acc{Zero(), Zero(), Zero()};
  __mmask8 started = 0;
  for (int w = kBoothDigits - 1; w >= 0; --w) {
    if (w != kBoothDigits - 1) {
      for (int i = 0; i < 5; ++i) acc = Dbl(acc);
    }
    const int d = booth[w];
    const u64 neg = static_cast<uint32_t>(d) >> 31;
    const u64 mag = static_cast<u64>((d ^ -static_cast<int>(neg)) +
                                     static_cast<int>(neg));
    // Full masked scan for entry mag - 1 (none when mag is zero).
    const __m512i idx = Bc(mag - 1);
    J e{Zero(), Zero(), Zero()};
    for (int i = 0; i < 16; ++i) {
      const __mmask8 hit = _mm512_cmpeq_epi64_mask(idx, Bc(i));
      e.x = Blend(hit, e.x, table[i].x);
      e.y = Blend(hit, e.y, table[i].y);
      e.z = Blend(hit, e.z, table[i].z);
    }
    e.y = Blend(_mm512_cmpneq_epi64_mask(Bc(neg), zero), e.y, Neg(e.y));
    const __mmask8 nonzero = _mm512_cmpneq_epi64_mask(Bc(mag), zero);
    acc = Accumulate(acc, JAdd(acc, e), e, started, nonzero);
    started |= nonzero;
  }
  StoreJacobian(acc, dst);
}

// Eight lanes of CombMultJ (ec_p256.cpp): one comb table, a digit per lane.
// `table` holds the 32 entries broadcast to every lane; digits[c][l] is
// lane l's digit for comb column c = 2j + half.
SHUFFLEDP_IFMA_TARGET void CombMult8(const A* table,
                                     const u64 (*digits)[kLanes],
                                     Jacobian* const dst[kLanes]) {
  const __m512i zero = _mm512_setzero_si512();
  const F one = Const(kOne260);
  J acc{Zero(), Zero(), Zero()};
  __mmask8 started = 0;
  for (int j = 31; j >= 0; --j) {
    if (j != 31) acc = Dbl(acc);
    for (int half = 0; half < 2; ++half) {
      const __m512i idx = _mm512_load_si512(digits[2 * j + half]);
      const A* t = table + 16 * half;
      A e{Zero(), Zero()};
      for (int i = 1; i < 16; ++i) {
        const __mmask8 hit = _mm512_cmpeq_epi64_mask(idx, Bc(i));
        e.x = Blend(hit, e.x, t[i].x);
        e.y = Blend(hit, e.y, t[i].y);
      }
      const __mmask8 nonzero = _mm512_cmpneq_epi64_mask(idx, zero);
      acc = Accumulate(acc, MAdd(acc, e), J{e.x, e.y, one}, started, nonzero);
      started |= nonzero;
    }
  }
  StoreJacobian(acc, dst);
}

SHUFFLEDP_IFMA_TARGET void CombMultBatchImpl(const Affine table[32],
                                             const Scalar256* ks, size_t n,
                                             Jacobian* out) {
  // Broadcast every entry to all lanes once per batch.
  A lanes_table[32];
  for (int e = 0; e < 32; ++e) {
    const Scalar256* xs[kLanes];
    const Scalar256* ys[kLanes];
    std::fill(xs, xs + kLanes, &table[e].x);
    std::fill(ys, ys + kLanes, &table[e].y);
    lanes_table[e] = A{LoadLanes(xs), LoadLanes(ys)};
  }
  Jacobian spill[kLanes];
  alignas(64) u64 digits[64][kLanes];
  for (size_t base = 0; base < n; base += kLanes) {
    const size_t lanes = std::min<size_t>(kLanes, n - base);
    Jacobian* dst[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      // A partial vector repeats its first scalar in the spare lanes and
      // discards them.
      const Scalar256& k = ks[base + (l < lanes ? l : 0)];
      dst[l] = l < lanes ? &out[base + l] : &spill[l];
      for (int j = 0; j < 32; ++j) {
        digits[2 * j][l] = CombDigit(k, j, 0);
        digits[2 * j + 1][l] = CombDigit(k, j, 1);
      }
    }
    CombMult8(lanes_table, digits, dst);
  }
}

}  // namespace

bool Compiled() { return true; }

void ScalarMultBatch(const int8_t booth[kBoothDigits], const Affine* points,
                     size_t n, Jacobian* out) {
  Jacobian spill[kLanes];
  for (size_t base = 0; base < n; base += kLanes) {
    const size_t lanes = std::min<size_t>(kLanes, n - base);
    const Affine* pts[kLanes];
    Jacobian* dst[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      // A partial vector repeats its first point in the spare lanes and
      // discards them.
      pts[l] = &points[base + (l < lanes ? l : 0)];
      dst[l] = l < lanes ? &out[base + l] : &spill[l];
    }
    ScalarMult8(booth, pts, dst);
  }
}

void CombMultBatch(const Affine table[32], const Scalar256* ks, size_t n,
                   Jacobian* out) {
  CombMultBatchImpl(table, ks, n, out);
}

#else  // !SHUFFLEDP_P256_IFMA_COMPILED

bool Compiled() { return false; }

void ScalarMultBatch(const int8_t*, const Affine*, size_t, Jacobian*) {
  std::abort();
}

void CombMultBatch(const Affine*, const Scalar256*, size_t, Jacobian*) {
  std::abort();
}

#endif  // SHUFFLEDP_P256_IFMA_COMPILED

}  // namespace p256_ifma
}  // namespace crypto
}  // namespace shuffledp
