// 8-lane AVX-512 IFMA Montgomery kernels (Gueron & Krasnov, "Accelerating
// big integer arithmetic using Intel IFMA extensions", ARITH 2016; Drucker
// & Gueron, "Fast modular squaring with AVX512IFMA", 2019).
//
// Each __m512i holds one 52-bit digit of eight independent operands, and
// vpmadd52{lo,hi}uq add the low or high 52 bits of a 52x52-bit product to
// 64-bit accumulators. An n-limb modulus m takes k = ceil(64n / 52)
// digits, and Mul52 is a digit-serial (CIOS) Montgomery multiply in
// R' = 2^(52k) = R * 2^s, where R = 2^(64n) and s = 52k - 64n:
//
//   Mul52(A, B) = (A*B + q*m) / R',  q < R' picked digit by digit.
//
// Exactness. For A < R' and B < m the result is below (R'*m + R'*m)/R' =
// 2m, so one masked subtraction makes it canonical. The per-call kernel
// (MulMany8Ifma) feeds its first operand a < R in as A = a * 2^s, which
// the 64 -> 52 split gets for free by starting the digit grid s bits
// low; then Mul52 = a*2^s*b / (R*2^s) = a*b*R^-1 mod m, the canonical
// value the portable and AVX2 tiers return. The ladder
// (CtModExpMany8Ifma) enters with Mul52(x*R*2^s, R' mod m) = x*R', runs
// every square and multiply in R' on canonical operands, and leaves
// with Mul52(acc, R mod m) = x^e*R, again the canonical value the other
// tiers return.
//
// Accumulators. Digits are not normalized inside a multiply: a 64-bit
// slot collects at most 4k partial products below 2^52 plus one carry,
// which stays below 2^64 for k < 1024. Only the final pass ripples the
// carries, once per multiply.
//
// Constant time by construction: all eight lanes run one instruction
// stream, the final subtraction is a masked move, the window table is
// read by a full masked scan, and gathers and scatters address memory
// only through the lane pointers.
//
// This is a separate translation unit so the target("avx512ifma")
// functions never perturb the scalar or AVX2 kernels' code generation.

#include <cstdint>
#include <type_traits>
#include <vector>

#include "crypto/montgomery.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define SHUFFLEDP_MONT_IFMA_COMPILED 1
#else
#define SHUFFLEDP_MONT_IFMA_COMPILED 0
#endif

namespace shuffledp {
namespace crypto {

#if SHUFFLEDP_MONT_IFMA_COMPILED

namespace {

// Calls f(std::integral_constant<int, N>()) when N = limbs is one of the
// widths with IFMA kernels (the key widths: 512- to 4096-bit moduli);
// returns false for every other width.
template <typename F>
bool WithIfmaWidth(size_t limbs, F&& f) {
  switch (limbs) {
    case 8:
      f(std::integral_constant<int, 8>());
      return true;
    case 16:
      f(std::integral_constant<int, 16>());
      return true;
    case 32:
      f(std::integral_constant<int, 32>());
      return true;
    case 48:
      f(std::integral_constant<int, 48>());
      return true;
    case 64:
      f(std::integral_constant<int, 64>());
      return true;
    default:
      return false;
  }
}

#define SHUFFLEDP_MONT_IFMA_TARGET \
  __attribute__((target("avx512f,avx512ifma")))
#define SHUFFLEDP_MONT_IFMA_INLINE \
  SHUFFLEDP_MONT_IFMA_TARGET inline __attribute__((always_inline))

using u64 = uint64_t;

constexpr u64 kMask52 = (u64{1} << 52) - 1;

// Digit count and pre-shift of an N-limb width.
template <int N>
struct Width {
  static constexpr int kDigits = (64 * N + 51) / 52;
  static constexpr int kShift = 52 * kDigits - 64 * N;
};

SHUFFLEDP_MONT_IFMA_INLINE __m512i Bc(u64 v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

// Shifts through GCC vector extensions: the _mm512_s{l,r}li_epi64
// intrinsics trip -Wuninitialized in GCC 12 (see ec_p256_ifma.cpp).
typedef u64 V8u __attribute__((vector_size(64)));

SHUFFLEDP_MONT_IFMA_INLINE __m512i Srli(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<V8u>(a) >> n);
}

SHUFFLEDP_MONT_IFMA_INLINE __m512i Slli(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<V8u>(a) << n);
}

// 64-byte-aligned view of a per-thread buffer holding `vecs` vectors. A
// word buffer with a manual round-up, as in the AVX2 tier: the default
// allocator does not reliably over-align.
__m512i* Workspace(std::vector<u64>* buf, size_t vecs) {
  if (buf->size() < 8 * vecs + 8) buf->resize(8 * vecs + 8);
  return reinterpret_cast<__m512i*>(
      (reinterpret_cast<uintptr_t>(buf->data()) + 63) & ~uintptr_t{63});
}

// The eight lane pointers as gather/scatter addresses.
SHUFFLEDP_MONT_IFMA_INLINE __m512i LaneAddresses(const u64* const* p) {
  alignas(64) long long addr[8];
  for (int l = 0; l < 8; ++l) {
    addr[l] = static_cast<long long>(reinterpret_cast<uintptr_t>(p[l]));
  }
  return _mm512_load_si512(addr);
}

// d[0..k) = radix-2^52 digits of (lane value << kShift), the lanes
// gathered limb by limb. Digit j is bits [52j - kShift, 52j - kShift +
// 52) of the value, i.e. bits [o, o + 52) of l, which starts one zero
// word low so the pre-shifted digit 0 needs no special case.
template <int N, int kShift>
SHUFFLEDP_MONT_IFMA_TARGET void Split(__m512i addr, __m512i* d) {
  __m512i l[N + 2];
  l[0] = _mm512_setzero_si512();
  l[N + 1] = _mm512_setzero_si512();
  // The masked form with a zero source: the plain gather intrinsic's
  // undefined source vector also trips -Wuninitialized in GCC 12.
  for (int i = 0; i < N; ++i) {
    l[i + 1] = _mm512_mask_i64gather_epi64(
        l[0], 0xFF, _mm512_add_epi64(addr, Bc(8 * static_cast<u64>(i))),
        nullptr, 1);
  }
  const __m512i mask = Bc(kMask52);
  for (int j = 0; j < Width<N>::kDigits; ++j) {
    const int o = 52 * j + 64 - kShift;
    const int w = o / 64;
    const int r = o % 64;
    __m512i v = Srli(l[w], r);
    if (r > 12) v = _mm512_or_si512(v, Slli(l[w + 1], 64 - r));
    d[j] = _mm512_and_si512(v, mask);
  }
}

// Scatters normalized digits d[0..k) back to N 64-bit limbs per lane.
// Reads d[k], which must be zero.
template <int N>
SHUFFLEDP_MONT_IFMA_TARGET void Join(const __m512i* d, __m512i addr) {
  for (int i = 0; i < N; ++i) {
    const int j = 64 * i / 52;
    const int r = 64 * i % 52;
    __m512i v = _mm512_or_si512(Srli(d[j], r), Slli(d[j + 1], 52 - r));
    if (r > 40) v = _mm512_or_si512(v, Slli(d[j + 2], 104 - r));
    _mm512_i64scatter_epi64(
        nullptr, _mm512_add_epi64(addr, Bc(8 * static_cast<u64>(i))), v, 1);
  }
}

// out = a * b / R' mod m, canonical and normalized, for a < R' and b < m
// given as K normalized digits. t is 2K vectors of scratch. out may alias
// a or b: it is written only after the last read of either.
template <int K>
SHUFFLEDP_MONT_IFMA_TARGET void Mul52(const __m512i* a, const __m512i* b,
                                      const u64* m, __m512i mu, __m512i* t,
                                      __m512i* out) {
  const __m512i zero = _mm512_setzero_si512();
  for (int j = 0; j < K; ++j) t[j] = zero;
  // Step i works on the window t[i..i+K]: add a*b_i and q*m, where q
  // zeroes digit i mod 2^52, then move digit i's carry up one slot. The
  // window slides instead of shifting t, and t[i+K] is fresh each step.
  for (int i = 0; i < K; ++i) {
    const __m512i bi = b[i];
    __m512i* ti = t + i;
    __m512i x0 = _mm512_madd52lo_epu64(ti[0], a[0], bi);
    const __m512i q = _mm512_madd52lo_epu64(zero, x0, mu);
    x0 = _mm512_madd52lo_epu64(x0, Bc(m[0]), q);
    for (int j = 1; j < K; ++j) {
      __m512i x = ti[j];
      x = _mm512_madd52lo_epu64(x, a[j], bi);
      x = _mm512_madd52hi_epu64(x, a[j - 1], bi);
      x = _mm512_madd52lo_epu64(x, Bc(m[j]), q);
      x = _mm512_madd52hi_epu64(x, Bc(m[j - 1]), q);
      ti[j] = x;
    }
    ti[1] = _mm512_add_epi64(ti[1], Srli(x0, 52));
    ti[K] = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(zero, a[K - 1], bi),
                                  Bc(m[K - 1]), q);
  }

  // Normalize t[K..2K) into out; c is the carry out of the top digit.
  const __m512i mask = Bc(kMask52);
  __m512i c = zero;
  for (int j = 0; j < K; ++j) {
    const __m512i v = _mm512_add_epi64(t[K + j], c);
    out[j] = _mm512_and_si512(v, mask);
    c = Srli(v, 52);
  }
  // The value is below 2m: subtract m exactly when c is set or out >= m,
  // staging the difference in the dead low half of t.
  __m512i borrow = zero;
  for (int j = 0; j < K; ++j) {
    const __m512i x =
        _mm512_sub_epi64(_mm512_sub_epi64(out[j], Bc(m[j])), borrow);
    t[j] = _mm512_and_si512(x, mask);
    borrow = Srli(x, 63);
  }
  const __mmask8 sub = _mm512_test_epi64_mask(
      _mm512_or_si512(c, _mm512_xor_si512(borrow, Bc(1))), Bc(~u64{0}));
  for (int j = 0; j < K; ++j) {
    out[j] = _mm512_mask_mov_epi64(out[j], sub, t[j]);
  }
}

template <int N>
SHUFFLEDP_MONT_IFMA_TARGET void MulMany8(const u64* const* a,
                                         const u64* const* b, const u64* m,
                                         u64 mu, u64* const* out) {
  constexpr int K = Width<N>::kDigits;
  thread_local std::vector<u64> buf;
  __m512i* av = Workspace(&buf, 5 * K + 1);
  __m512i* bv = av + K;
  __m512i* ov = bv + K;  // K + 1: Join's zero sentinel
  __m512i* t = ov + K + 1;
  // Both operands are gathered before any output is scattered, so out
  // may alias the inputs.
  Split<N, Width<N>::kShift>(LaneAddresses(a), av);
  Split<N, 0>(LaneAddresses(b), bv);
  Mul52<K>(av, bv, m, Bc(mu), t, ov);
  ov[K] = _mm512_setzero_si512();
  Join<N>(ov, LaneAddresses(out));
}

template <int N>
SHUFFLEDP_MONT_IFMA_TARGET void CtModExpMany8(
    const u64* const* base_mont, const u64* digits, size_t nwin, unsigned w,
    const u64* m, u64 mu, const u64* one52, const u64* r52,
    u64* const* out) {
  constexpr int K = Width<N>::kDigits;
  const size_t tsize = size_t{1} << w;
  thread_local std::vector<u64> buf;
  __m512i* tbl = Workspace(&buf, (tsize + 4) * K + 1);
  __m512i* acc = tbl + tsize * K;  // K + 1: Join's zero sentinel
  __m512i* sel = acc + K + 1;
  __m512i* t = sel + K;
  const __m512i muv = Bc(mu);
  auto entry = [&](size_t d) { return tbl + d * K; };

  // Entry 0 is one (R' mod m); entry 1 is x*R' = Mul52(x*R*2^s, R' mod m),
  // canonical, so every later product has both operands below m.
  for (int j = 0; j < K; ++j) entry(0)[j] = Bc(one52[j]);
  Split<N, Width<N>::kShift>(LaneAddresses(base_mont), sel);
  Mul52<K>(sel, entry(0), m, muv, t, entry(1));
  for (size_t d = 2; d < tsize; ++d) {
    Mul52<K>(entry(d - 1), entry(1), m, muv, t, entry(d));
  }

  // The ladder of CtModExpManyInto: w squarings, a full masked scan of
  // the table (exactly one entry matches the digit), one multiply.
  for (int j = 0; j < K; ++j) acc[j] = entry(0)[j];
  for (size_t win = nwin; win-- > 0;) {
    for (unsigned s = 0; s < w; ++s) Mul52<K>(acc, acc, m, muv, t, acc);
    const __m512i digit = Bc(digits[win]);
    for (size_t d = 0; d < tsize; ++d) {
      const __mmask8 hit = _mm512_cmpeq_epi64_mask(Bc(d), digit);
      const __m512i* e = entry(d);
      for (int j = 0; j < K; ++j) {
        sel[j] = _mm512_mask_mov_epi64(sel[j], hit, e[j]);
      }
    }
    Mul52<K>(acc, sel, m, muv, t, acc);
  }

  // Exit: Mul52(x^e*R', R mod m) = x^e*R.
  for (int j = 0; j < K; ++j) sel[j] = Bc(r52[j]);
  Mul52<K>(acc, sel, m, muv, t, acc);
  acc[K] = _mm512_setzero_si512();
  Join<N>(acc, LaneAddresses(out));
}

}  // namespace

size_t MontgomeryCtx::IfmaDigitsFor(size_t limbs) {
  size_t k = 0;
  WithIfmaWidth(limbs,
                [&](auto n) { k = Width<decltype(n)::value>::kDigits; });
  return k;
}

void MontgomeryCtx::MulMany8Ifma(const uint64_t* const* a,
                                 const uint64_t* const* b,
                                 uint64_t* const* out) const {
  WithIfmaWidth(limbs_, [&](auto n) {
    MulMany8<decltype(n)::value>(a, b, mod52_.data(), mu_ & kMask52, out);
  });
}

void MontgomeryCtx::CtModExpMany8Ifma(const uint64_t* const* base_mont,
                                      const uint64_t* digits, size_t nwin,
                                      unsigned w,
                                      uint64_t* const* out) const {
  WithIfmaWidth(limbs_, [&](auto n) {
    CtModExpMany8<decltype(n)::value>(base_mont, digits, nwin, w,
                                      mod52_.data(), mu_ & kMask52,
                                      one52_.data(), r52_.data(), out);
  });
}

#else  // !SHUFFLEDP_MONT_IFMA_COMPILED

// No IFMA kernels: no context sets mod52_, so the two kernels below are
// never dispatched to.
size_t MontgomeryCtx::IfmaDigitsFor(size_t) { return 0; }

void MontgomeryCtx::MulMany8Ifma(const uint64_t* const*,
                                 const uint64_t* const*,
                                 uint64_t* const*) const {}

void MontgomeryCtx::CtModExpMany8Ifma(const uint64_t* const*,
                                      const uint64_t*, size_t, unsigned,
                                      uint64_t* const*) const {}

#endif  // SHUFFLEDP_MONT_IFMA_COMPILED

}  // namespace crypto
}  // namespace shuffledp
