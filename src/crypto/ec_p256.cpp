#include "crypto/ec_p256.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "crypto/ec_p256_ifma.h"
#include "crypto/secure_random.h"
#include "util/cpu_features.h"

namespace shuffledp {
namespace crypto {

namespace {

using u64 = uint64_t;
using u128 = unsigned __int128;
using Fe = Scalar256;  // field element, little-endian limbs

// p = 2^256 - 2^224 + 2^192 + 2^96 - 1
constexpr Fe kP = {0xFFFFFFFFFFFFFFFFULL, 0x00000000FFFFFFFFULL,
                   0x0000000000000000ULL, 0xFFFFFFFF00000001ULL};

// Group order n.
constexpr Fe kN = {0xF3B9CAC2FC632551ULL, 0xBCE6FAADA7179E84ULL,
                   0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFF00000000ULL};

// Curve coefficient b (a = -3 is implicit in the formulas).
constexpr Fe kB = {0x3BCE3C3E27D2604BULL, 0x651D06B0CC53B0F6ULL,
                   0xB3EBBD55769886BCULL, 0x5AC635D8AA3A93E7ULL};

constexpr Fe kGx = {0xF4A13945D898C296ULL, 0x77037D812DEB33A0ULL,
                    0xF8BCE6E563A440F2ULL, 0x6B17D1F2E12C4247ULL};
constexpr Fe kGy = {0xCBB6406837BF51F5ULL, 0x2BCE33576B315ECEULL,
                    0x8EE7EB4A7C0F9E16ULL, 0x4FE342E2FE1A7F9BULL};

// R = 2^256 mod p (Montgomery one) and R^2 mod p.
constexpr Fe kOne = {0x0000000000000001ULL, 0xFFFFFFFF00000000ULL,
                     0xFFFFFFFFFFFFFFFFULL, 0x00000000FFFFFFFEULL};
constexpr Fe kRR = {0x0000000000000003ULL, 0xFFFFFFFBFFFFFFFFULL,
                    0xFFFFFFFFFFFFFFFEULL, 0x00000004FFFFFFFDULL};

bool IsZeroFe(const Fe& a) {
  return (a[0] | a[1] | a[2] | a[3]) == 0;
}

int CompareFe(const Fe& a, const Fe& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Constant-time helpers. A mask is all-ones or zero.
// ---------------------------------------------------------------------------

// All-ones iff x != 0.
inline u64 CtNonzeroMask(u64 x) { return 0 - ((x | (0 - x)) >> 63); }

inline u64 CtFeZeroMask(const Fe& a) {
  return ~CtNonzeroMask(a[0] | a[1] | a[2] | a[3]);
}

// mask ? a : b, limb by limb.
inline Fe CtSelect(u64 mask, const Fe& a, const Fe& b) {
  Fe out;
  for (int i = 0; i < 4; ++i) out[i] = (a[i] & mask) | (b[i] & ~mask);
  return out;
}

// out = a + b, returns the carry.
inline u64 AddFeRaw(const Fe& a, const Fe& b, Fe* out) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    (*out)[i] = static_cast<u64>(s);
    carry = s >> 64;
  }
  return static_cast<u64>(carry);
}

// out = a - b, returns the borrow.
inline u64 SubFeRaw(const Fe& a, const Fe& b, Fe* out) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    (*out)[i] = static_cast<u64>(d);
    borrow = (d >> 64) & 1;
  }
  return static_cast<u64>(borrow);
}

// Reduces hi * 2^256 + v, known to be below 2 * m, into [0, m).
inline Fe CtReduceOnce(const Fe& v, u64 hi, const Fe& m) {
  Fe t;
  const u64 borrow = SubFeRaw(v, m, &t);
  // Keep v only when it is below m: no carry-in and the subtraction
  // borrowed.
  return CtSelect(0 - (borrow & (hi ^ 1)), v, t);
}

// ---------------------------------------------------------------------------
// The P-256 field, 4x64 limbs in the Montgomery domain R = 2^256. Every
// operation is branchless and returns a canonical value in [0, p).
//
// p's low limb is 2^64 - 1, so the Montgomery factor -p^-1 mod 2^64 is 1:
// the reduction multiplier is the low limb itself, and m * p0 + t0 is
// exactly m * 2^64. With p's third limb zero, each reduction step then
// needs two multiplies (by p1 and p3) instead of four.
// ---------------------------------------------------------------------------

Fe FeAdd(const Fe& a, const Fe& b) {
  Fe sum;
  const u64 carry = AddFeRaw(a, b, &sum);
  return CtReduceOnce(sum, carry, kP);
}

Fe FeSub(const Fe& a, const Fe& b) {
  Fe diff;
  const u64 borrow = SubFeRaw(a, b, &diff);
  Fe p_masked;
  for (int i = 0; i < 4; ++i) p_masked[i] = kP[i] & (0 - borrow);
  Fe out;
  AddFeRaw(diff, p_masked, &out);
  return out;
}

// -(a) mod p; zero stays zero.
Fe FeNeg(const Fe& a) {
  Fe out;
  SubFeRaw(kP, a, &out);
  const u64 keep = ~CtFeZeroMask(a);
  for (int i = 0; i < 4; ++i) out[i] &= keep;
  return out;
}

// Montgomery product a * b * 2^-256 mod p (CIOS, one limb of b per
// step, the reduction interleaved).
Fe FeMul(const Fe& a, const Fe& b) {
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  for (int i = 0; i < 4; ++i) {
    // t += a * b[i]
    u128 c = static_cast<u128>(a[0]) * b[i] + t0;
    t0 = static_cast<u64>(c);
    c = static_cast<u128>(a[1]) * b[i] + t1 + static_cast<u64>(c >> 64);
    t1 = static_cast<u64>(c);
    c = static_cast<u128>(a[2]) * b[i] + t2 + static_cast<u64>(c >> 64);
    t2 = static_cast<u64>(c);
    c = static_cast<u128>(a[3]) * b[i] + t3 + static_cast<u64>(c >> 64);
    t3 = static_cast<u64>(c);
    c = static_cast<u128>(t4) + static_cast<u64>(c >> 64);
    t4 = static_cast<u64>(c);
    const u64 t5 = static_cast<u64>(c >> 64);
    // t = (t + m * p) / 2^64 with m = t0 (-p^-1 mod 2^64 == 1): m * p0 +
    // t0 is m * 2^64, so limb 0 carries m and p2 = 0 adds nothing.
    const u64 m = t0;
    c = static_cast<u128>(m) * kP[1] + t1 + m;
    t0 = static_cast<u64>(c);
    c = static_cast<u128>(t2) + static_cast<u64>(c >> 64);
    t1 = static_cast<u64>(c);
    c = static_cast<u128>(m) * kP[3] + t3 + static_cast<u64>(c >> 64);
    t2 = static_cast<u64>(c);
    c = static_cast<u128>(t4) + static_cast<u64>(c >> 64);
    t3 = static_cast<u64>(c);
    t4 = t5 + static_cast<u64>(c >> 64);
  }
  // t < 2p for inputs below p.
  return CtReduceOnce(Fe{t0, t1, t2, t3}, t4, kP);
}

Fe FeSqr(const Fe& a) { return FeMul(a, a); }

Fe ToMont(const Fe& a) { return FeMul(a, kRR); }
Fe FromMont(const Fe& a) { return FeMul(a, Fe{1, 0, 0, 0}); }

// a^(2^n) by repeated squaring.
Fe FeSqrN(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = FeSqr(a);
  return a;
}

// a^(p-2) = a^-1 via a fixed addition chain (255 squarings, 12 multiplies).
// Chain (addchain output for the P-256 field prime):
//   _111 = 7, _111111 = 2^6-1, x12 = 2^12-1, x15, x16, x32 = 2^32-1,
//   i53 = x32<<15, x47 = 2^47-1,
//   i263 = ((i53<<17 + 1)<<143 + x47)<<47,
//   result = (x47 + i263)<<2 + 1  ==  p - 2.
Fe FeInverse(const Fe& a) {
  Fe t10 = FeSqr(a);
  Fe t11 = FeMul(t10, a);
  Fe t110 = FeSqr(t11);
  Fe t111 = FeMul(t110, a);
  Fe t111111 = FeMul(FeSqrN(t111, 3), t111);
  Fe x12 = FeMul(FeSqrN(t111111, 6), t111111);
  Fe x15 = FeMul(FeSqrN(x12, 3), t111);
  Fe x16 = FeMul(FeSqr(x15), a);
  Fe x32 = FeMul(FeSqrN(x16, 16), x16);
  Fe i53 = FeSqrN(x32, 15);
  Fe x47 = FeMul(x15, i53);
  Fe i263 = FeSqrN(FeMul(FeSqrN(FeMul(FeSqrN(i53, 17), a), 143), x47), 47);
  return FeMul(FeSqrN(FeMul(x47, i263), 2), a);
}

// k mod n, branchless. Every k < 2^256 is below 2n, so one conditional
// subtraction suffices.
Scalar256 ReduceModN(const Scalar256& k) {
  return CtReduceOnce(k, 0, kN);
}

// ---------------------------------------------------------------------------
// Points.
// ---------------------------------------------------------------------------

// Jacobian point, coordinates in Montgomery form. Infinity <=> z == 0.
using Jacobian = p256_ifma::Jacobian;

// Affine point in the Montgomery domain (z == 1 implicitly). Only valid
// for non-infinite points; callers track infinity separately. The header
// declares it so P256Precomputed can hold a comb table without a copy.
using AffineMont = P256Precomputed::Entry;

bool JIsInfinity(const Jacobian& p) { return IsZeroFe(p.z); }

Jacobian JInfinity() { return Jacobian{Fe{}, Fe{}, Fe{}}; }

AffineMont ToAffineMont(const P256Point& p) {
  return AffineMont{ToMont(p.x), ToMont(p.y)};
}

Jacobian ToJacobian(const P256Point& p) {
  if (p.infinity) return JInfinity();
  return Jacobian{ToMont(p.x), ToMont(p.y), kOne};
}

P256Point ToAffine(const Jacobian& p) {
  if (JIsInfinity(p)) return P256Point{};
  Fe zinv = FeInverse(p.z);
  Fe zinv2 = FeSqr(zinv);
  Fe zinv3 = FeMul(zinv2, zinv);
  P256Point out;
  out.infinity = false;
  out.x = FromMont(FeMul(p.x, zinv2));
  out.y = FromMont(FeMul(p.y, zinv3));
  return out;
}

// Doubling with a = -3 (dbl-2001-b). Branch-free: infinity (z == 0) maps
// to z3 = 2yz = 0, and P-256 has no point of order two (y == 0).
Jacobian JDouble(const Jacobian& p) {
  Fe delta = FeSqr(p.z);
  Fe gamma = FeSqr(p.y);
  Fe beta = FeMul(p.x, gamma);
  Fe t3 = FeMul(FeSub(p.x, delta), FeAdd(p.x, delta));
  Fe alpha = FeAdd(FeAdd(t3, t3), t3);  // 3*(x-delta)*(x+delta)
  Fe beta2 = FeAdd(beta, beta);
  Fe beta4 = FeAdd(beta2, beta2);
  Jacobian out;
  out.x = FeSub(FeSqr(alpha), FeAdd(beta4, beta4));
  Fe yz = FeMul(p.y, p.z);
  out.z = FeAdd(yz, yz);
  Fe gamma2 = FeSqr(gamma);
  Fe g2_2 = FeAdd(gamma2, gamma2);
  Fe g2_4 = FeAdd(g2_2, g2_2);
  out.y = FeSub(FeMul(alpha, FeSub(beta4, out.x)), FeAdd(g2_4, g2_4));
  return out;
}

// General Jacobian addition, complete by branching. Only for public
// points: P256::Add, table construction and the reference ladder.
Jacobian JAdd(const Jacobian& a, const Jacobian& b) {
  if (JIsInfinity(a)) return b;
  if (JIsInfinity(b)) return a;
  Fe z1z1 = FeSqr(a.z);
  Fe z2z2 = FeSqr(b.z);
  Fe u1 = FeMul(a.x, z2z2);
  Fe u2 = FeMul(b.x, z1z1);
  Fe s1 = FeMul(FeMul(a.y, b.z), z2z2);
  Fe s2 = FeMul(FeMul(b.y, a.z), z1z1);
  Fe h = FeSub(u2, u1);
  Fe r = FeSub(s2, s1);
  if (IsZeroFe(h)) {
    if (IsZeroFe(r)) return JDouble(a);
    return JInfinity();
  }
  Fe hh = FeSqr(h);
  Fe hhh = FeMul(hh, h);
  Fe v = FeMul(u1, hh);
  Jacobian out;
  out.x = FeSub(FeSub(FeSqr(r), hhh), FeAdd(v, v));
  out.y = FeSub(FeMul(r, FeSub(v, out.x)), FeMul(s1, hhh));
  out.z = FeMul(FeMul(a.z, b.z), h);
  return out;
}

// Mixed addition a + b with b affine (z2 = 1), without exceptional cases:
// a must be neither infinity nor +-b. The secret-scalar loops below
// call it only where the surrounding proof rules both out, and pick the
// right result for an infinity accumulator or a zero digit by mask.
Jacobian JAddMixed(const Jacobian& a, const AffineMont& b) {
  Fe z1z1 = FeSqr(a.z);
  Fe u2 = FeMul(b.x, z1z1);
  Fe s2 = FeMul(FeMul(b.y, a.z), z1z1);
  Fe h = FeSub(u2, a.x);
  Fe r = FeSub(s2, a.y);
  Fe hh = FeSqr(h);
  Fe hhh = FeMul(hh, h);
  Fe v = FeMul(a.x, hh);
  Jacobian out;
  out.x = FeSub(FeSub(FeSqr(r), hhh), FeAdd(v, v));
  out.y = FeSub(FeMul(r, FeSub(v, out.x)), FeMul(a.y, hhh));
  out.z = FeMul(a.z, h);
  return out;
}

// One step of a secret-scalar loop: given the accumulator, whether it has
// left infinity yet (`started`) and whether this digit is nonzero, returns
// acc + e, e itself (first nonzero digit) or acc (zero digit), by mask.
Jacobian CtAccumulate(const Jacobian& acc, const AffineMont& e, u64 started,
                      u64 nonzero) {
  const Jacobian sum = JAddMixed(acc, e);
  const u64 take_sum = started & nonzero;
  const u64 take_e = ~started & nonzero;
  Jacobian out;
  out.x = CtSelect(take_sum, sum.x, CtSelect(take_e, e.x, acc.x));
  out.y = CtSelect(take_sum, sum.y, CtSelect(take_e, e.y, acc.y));
  out.z = CtSelect(take_sum, sum.z, CtSelect(take_e, kOne, acc.z));
  return out;
}

// Constant-time scan of a 16-entry table: every entry is read and masked,
// and the result is table[idx], or zero when idx is not in [0, 15].
AffineMont CtSelect16(const AffineMont* table, uint32_t idx) {
  AffineMont out{};
  for (uint32_t i = 0; i < 16; ++i) {
    const u64 mask = ~CtNonzeroMask(i ^ idx);
    for (int j = 0; j < 4; ++j) {
      out.x[j] |= table[i].x[j] & mask;
      out.y[j] |= table[i].y[j] & mask;
    }
  }
  return out;
}

// Montgomery's simultaneous-inversion trick: normalizes `n` Jacobian
// points to affine (Montgomery-domain) coordinates with a single field
// inversion plus 3 multiplications per point. infinity[i] is set for
// inputs with z == 0, whose out[] entry is zero. Branchless: a zero z
// enters the running product as one.
void BatchNormalize(const Jacobian* in, size_t n, AffineMont* out,
                    bool* infinity) {
  std::vector<Fe> prefix(n);
  Fe acc = kOne;
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    acc = FeMul(acc, CtSelect(CtFeZeroMask(in[i].z), kOne, in[i].z));
  }
  Fe inv = FeInverse(acc);
  for (size_t i = n; i-- > 0;) {
    const u64 inf = CtFeZeroMask(in[i].z);
    infinity[i] = (inf & 1) != 0;
    Fe zinv = FeMul(inv, prefix[i]);
    inv = FeMul(inv, CtSelect(inf, kOne, in[i].z));
    Fe zinv2 = FeSqr(zinv);
    Fe zinv3 = FeMul(zinv2, zinv);
    out[i].x = CtSelect(inf, Fe{}, FeMul(in[i].x, zinv2));
    out[i].y = CtSelect(inf, Fe{}, FeMul(in[i].y, zinv3));
  }
}

// Batch conversion all the way to plain-domain affine P256Points.
std::vector<P256Point> BatchToAffinePoints(const std::vector<Jacobian>& in) {
  std::vector<AffineMont> aff(in.size());
  std::unique_ptr<bool[]> inf(new bool[in.size() + 1]);
  if (!in.empty()) {
    BatchNormalize(in.data(), in.size(), aff.data(), inf.get());
  }
  std::vector<P256Point> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    // An infinity entry's coordinates are already zero, like P256Point{}.
    out[i].infinity = inf[i];
    out[i].x = FromMont(aff[i].x);
    out[i].y = FromMont(aff[i].y);
  }
  return out;
}

// Reference double-and-add ladder (the seed implementation).
Jacobian JScalarMult(const Scalar256& k, const Jacobian& p) {
  Jacobian acc = JInfinity();
  bool started = false;
  for (int bit = 255; bit >= 0; --bit) {
    if (started) acc = JDouble(acc);
    if ((k[bit / 64] >> (bit % 64)) & 1) {
      acc = started ? JAdd(acc, p) : p;
      started = true;
    }
  }
  return started ? acc : JInfinity();
}

// ---------------------------------------------------------------------------
// Backend dispatch.
// ---------------------------------------------------------------------------

bool CpuHasIfma() {
  const CpuFeatures& cpu = KernelCpuFeatures();
  return p256_ifma::Compiled() && cpu.avx512f && cpu.avx512ifma;
}

P256Backend& BackendOverride() {
  static P256Backend backend = BestP256Backend();
  return backend;
}

// ---------------------------------------------------------------------------
// Fixed-point comb.
//
// Write k = sum_{j=0}^{31} 2^j (D_lo(j) + 2^32 D_hi(j)) with the 4-bit
// digits D_lo(j) built from bits {j, j+64, j+128, j+192} of k and D_hi(j)
// from bits {j+32, j+96, j+160, j+224}. Precomputing
//   lo[b] = (b0 + b1 2^64 + b2 2^128 + b3 2^192) P      (b = b3b2b1b0)
//   hi[b] = 2^32 lo[b]
// reduces k*P to 31 doublings plus 64 mixed additions.
//
// Constant time: k is first reduced mod n, and every column adds both
// digits' table entries (found by a full masked scan), keeping acc or
// acc + entry by mask. No exceptional case of the addition is reachable.
// At column j acc holds s*P and the entry e*P, with s and e integers:
//  * s = sum_{c>j} 2^(c-j) (D_lo(c) + 2^32 D_hi(c)) (plus D_lo(j) before
//    the hi addition) and s + e are both at most k / 2^j < n;
//  * e's bits sit at offsets {0, 64, 128, 192} (lo) or {32, 96, 160, 224}
//    (hi) and s's bits never do: columns c > j land at offsets
//    (c - j) + 32m with 1 <= c - j <= 31, and the lo digit is added
//    before the hi one.
// So s == e (mod n) needs s = e, and s == -e (mod n) needs s + e = 0;
// with disjoint bits both mean s = e = 0: an infinity accumulator and a
// zero digit, which the masks handle.
// ---------------------------------------------------------------------------

// lo[b] at [b], hi[b] at [16 + b]; entries 0 and 16 (infinity) are zero.
using CombTable = std::array<AffineMont, 32>;

// Builds P's comb table. Pre: P is on the curve and not infinity. Every
// entry is then a nonzero multiple below the group order, so none is
// infinity.
CombTable BuildCombTable(const P256Point& p) {
  // basis[half][tooth] = 2^(64*tooth + 32*half) P.
  Jacobian basis[2][4];
  Jacobian acc = ToJacobian(p);
  for (int i = 0; i < 8; ++i) {
    if (i > 0) {
      for (int d = 0; d < 32; ++d) acc = JDouble(acc);
    }
    basis[i & 1][i >> 1] = acc;
  }
  // Entry b adds the basis point of b's lowest tooth to the entry with that
  // tooth cleared. 30 non-trivial entries, one batched normalization.
  Jacobian all[32];
  for (int half = 0; half < 2; ++half) {
    Jacobian* entries = all + 16 * half;
    entries[0] = JInfinity();
    for (int b = 1; b < 16; ++b) {
      const int tooth = __builtin_ctz(static_cast<unsigned>(b));
      entries[b] = JAdd(entries[b & (b - 1)], basis[half][tooth]);
    }
  }
  CombTable table{};
  bool inf[32] = {};
  BatchNormalize(all, 32, table.data(), inf);
  return table;
}

const CombTable& BaseCombTable() {
  static const CombTable* table =
      new CombTable(BuildCombTable(P256::Generator()));
  return *table;
}

inline uint32_t ScalarBit(const Scalar256& k, int i) {
  return static_cast<uint32_t>((k[i >> 6] >> (i & 63)) & 1);
}

// Pre: k < n.
Jacobian CombMultJ(const CombTable& t, const Scalar256& k) {
  Jacobian acc = JInfinity();
  u64 started = 0;
  for (int j = 31; j >= 0; --j) {
    acc = JDouble(acc);
    const uint32_t dlo = p256_ifma::CombDigit(k, j, 0);
    const uint32_t dhi = p256_ifma::CombDigit(k, j, 1);
    const u64 nz_lo = CtNonzeroMask(dlo);
    acc = CtAccumulate(acc, CtSelect16(t.data(), dlo), started, nz_lo);
    started |= nz_lo;
    const u64 nz_hi = CtNonzeroMask(dhi);
    acc = CtAccumulate(acc, CtSelect16(t.data() + 16, dhi), started, nz_hi);
    started |= nz_hi;
  }
  return acc;
}

std::vector<P256Point> CombMultBatch(const CombTable& t,
                                     const std::vector<Scalar256>& ks) {
  std::vector<Scalar256> reduced(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) reduced[i] = ReduceModN(ks[i]);
  std::vector<Jacobian> points(ks.size());
  if (ActiveP256Backend() == P256Backend::kIfma) {
    p256_ifma::CombMultBatch(t.data(), reduced.data(), reduced.size(),
                             points.data());
  } else {
    for (size_t i = 0; i < reduced.size(); ++i) {
      points[i] = CombMultJ(t, reduced[i]);
    }
  }
  return BatchToAffinePoints(points);
}

// ---------------------------------------------------------------------------
// Variable points: regular signed fixed-window (width-5 Booth) recoding.
//
// k = sum_{w=0}^{51} d_w 2^(5w) with every d_w in [-16, 16]; the top digit
// is in [0, 2] because k < 2^256. The loop runs 5 doublings and one
// addition of sign(d_w) * T[|d_w|] per digit, T[i] = i*P for i in [1, 16],
// whatever the digits are.
//
// No exceptional case of the addition is reachable for k in [0, n-1]
// (k is reduced mod n first). Let s_w = sum_{i>=w} d_i 2^(5(i-w)); Booth
// partial sums satisfy 0 <= s_w <= k / 2^(5w) + 1. Before digit w's
// addition acc holds 32 s_{w+1} P, and the addend is d_w P.
//  * w >= 1: |32 s_{w+1} -+ d_w| <= n/32 + 48 < n, so acc == +-addend
//    (mod n) forces 32 s_{w+1} = -+d_w, i.e. s_{w+1} = d_w = 0: an
//    infinity accumulator and a zero digit, which the masks handle.
//  * w = 0: acc == -addend means k == 0 (mod n), the same masked case.
//    acc == addend means k == 2 d_0 (mod n). With d_0 > 0 that is
//    k = 2 d_0 <= 32, but there d_0 is k (k < 16), negative (16 <= k <
//    32) or zero (k = 32). With d_0 = -m < 0 it is k = n - 2m, whose low
//    five bits are 17 - 2m mod 32 (n's are 17), while d_0 = -m needs
//    them to be 32 - m: m = 17, outside [1, 16]. No k in [1, n-1]
//    reaches it.
// ---------------------------------------------------------------------------

constexpr int kBoothDigits = p256_ifma::kBoothDigits;
constexpr int kBoothTableSize = 16;  // multiples {1, 2, ..., 16}P

// Recodes k < 2^256 into kBoothDigits signed digits (little-endian).
// Branchless: the digit values are secret.
void BoothRecode(const Scalar256& k, int8_t* digits) {
  for (int w = 0; w < kBoothDigits; ++w) {
    // Window bits b_{5w-1} .. b_{5w+4} (bit -1 and bits >= 256 are zero).
    const int lo = 5 * w - 1;
    uint32_t v = 0;
    for (int b = 0; b < 6; ++b) {
      const int bit = lo + b;
      if (bit >= 0 && bit < 256) v |= ScalarBit(k, bit) << b;
    }
    // d = b_{-1} + b0 + 2 b1 + 4 b2 + 8 b3 - 16 b4.
    const int d = static_cast<int>((v >> 1) + (v & 1)) -
                  32 * static_cast<int>(v >> 5);
    digits[w] = static_cast<int8_t>(d);
  }
}

// The loop body shared by each point: pre-normalized multiples
// table[i] = (i + 1) P.
Jacobian BoothMultJ(const AffineMont* table, const int8_t* digits) {
  Jacobian acc = JInfinity();
  u64 started = 0;
  for (int w = kBoothDigits - 1; w >= 0; --w) {
    if (w != kBoothDigits - 1) {
      for (int i = 0; i < 5; ++i) acc = JDouble(acc);
    }
    const int d = digits[w];
    const u64 neg = 0 - static_cast<u64>(static_cast<uint32_t>(d) >> 31);
    const uint32_t mag = static_cast<uint32_t>((d ^ static_cast<int>(neg)) -
                                               static_cast<int>(neg));
    AffineMont e = CtSelect16(table, mag - 1);
    e.y = CtSelect(neg, FeNeg(e.y), e.y);
    const u64 nonzero = CtNonzeroMask(mag);
    acc = CtAccumulate(acc, e, started, nonzero);
    started |= nonzero;
  }
  return acc;
}

}  // namespace

P256Backend BestP256Backend() {
  return CpuHasIfma() ? P256Backend::kIfma : P256Backend::kPortable;
}

P256Backend ActiveP256Backend() { return BackendOverride(); }

P256Backend SetP256Backend(P256Backend backend) {
  if (backend == P256Backend::kIfma && !CpuHasIfma()) {
    backend = P256Backend::kPortable;
  }
  BackendOverride() = backend;
  return backend;
}

const char* P256BackendName(P256Backend backend) {
  return backend == P256Backend::kIfma ? "ifma" : "portable";
}

P256Point P256::Generator() {
  P256Point g;
  g.infinity = false;
  g.x = kGx;
  g.y = kGy;
  return g;
}

Scalar256 P256::Order() { return kN; }

P256Point P256::Add(const P256Point& a, const P256Point& b) {
  return ToAffine(JAdd(ToJacobian(a), ToJacobian(b)));
}

P256Point P256::ScalarMult(const Scalar256& k, const P256Point& p) {
  return ScalarMultBatch(k, {p})[0];
}

std::vector<P256Point> P256::ScalarMultBatch(
    const Scalar256& k, const std::vector<P256Point>& points) {
  const size_t n = points.size();
  int8_t digits[kBoothDigits];
  BoothRecode(ReduceModN(k), digits);

  std::vector<Jacobian> out(n);
  if (ActiveP256Backend() == P256Backend::kIfma) {
    // Infinity inputs run the generator in their lane and are discarded.
    const AffineMont dummy = ToAffineMont(Generator());
    std::vector<AffineMont> affine(n);
    for (size_t i = 0; i < n; ++i) {
      affine[i] = points[i].infinity ? dummy : ToAffineMont(points[i]);
    }
    p256_ifma::ScalarMultBatch(digits, affine.data(), n, out.data());
  } else {
    // Multiples {1..16}P_i in Jacobian form, 16 per point: odd ones by a
    // mixed addition of P_i, even ones by doubling. Infinity inputs keep
    // an all-infinity table; their lanes are discarded below.
    std::vector<Jacobian> jtables(n * kBoothTableSize, JInfinity());
    for (size_t i = 0; i < n; ++i) {
      if (points[i].infinity) continue;
      const AffineMont p = ToAffineMont(points[i]);
      Jacobian* t = &jtables[i * kBoothTableSize];
      t[0] = Jacobian{p.x, p.y, kOne};
      for (int m = 2; m <= kBoothTableSize; ++m) {
        // m*P is never +-P or infinity: P has prime order n > 17.
        t[m - 1] = m % 2 == 0 ? JDouble(t[m / 2 - 1]) : JAddMixed(t[m - 2], p);
      }
    }
    // One inversion normalizes every table.
    std::vector<AffineMont> tables(jtables.size());
    std::unique_ptr<bool[]> inf(new bool[jtables.size() + 1]);
    if (!jtables.empty()) {
      BatchNormalize(jtables.data(), jtables.size(), tables.data(), inf.get());
    }
    for (size_t i = 0; i < n; ++i) {
      if (points[i].infinity) continue;
      out[i] = BoothMultJ(&tables[i * kBoothTableSize], digits);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (points[i].infinity) out[i] = JInfinity();
  }
  return BatchToAffinePoints(out);
}

P256Point P256::ScalarBaseMult(const Scalar256& k) {
  return ScalarBaseMultBatch({k})[0];
}

std::vector<P256Point> P256::ScalarBaseMultBatch(
    const std::vector<Scalar256>& ks) {
  return CombMultBatch(BaseCombTable(), ks);
}

P256Point P256::ScalarMultReference(const Scalar256& k, const P256Point& p) {
  return ToAffine(JScalarMult(k, ToJacobian(p)));
}

P256Point P256::ScalarBaseMultReference(const Scalar256& k) {
  return ScalarMultReference(k, Generator());
}

P256Precomputed::P256Precomputed(const P256Point& p) : point_(p) {
  if (!p.infinity) comb_ = BuildCombTable(p);
}

P256Point P256Precomputed::Mult(const Scalar256& k) const {
  return MultBatch({k})[0];
}

std::vector<P256Point> P256Precomputed::MultBatch(
    const std::vector<Scalar256>& ks) const {
  if (point_.infinity) return std::vector<P256Point>(ks.size());
  return CombMultBatch(comb_, ks);
}

bool P256::IsOnCurve(const P256Point& p) {
  if (p.infinity) return true;
  if (CompareFe(p.x, kP) >= 0 || CompareFe(p.y, kP) >= 0) return false;
  Fe x = ToMont(p.x);
  Fe y = ToMont(p.y);
  Fe b = ToMont(kB);
  // y^2 == x^3 - 3x + b
  Fe y2 = FeSqr(y);
  Fe x3 = FeMul(FeSqr(x), x);
  Fe three_x = FeAdd(FeAdd(x, x), x);
  Fe rhs = FeAdd(FeSub(x3, three_x), b);
  return CompareFe(y2, rhs) == 0;
}

Bytes P256::Serialize(const P256Point& p) {
  assert(!p.infinity);
  Bytes out;
  out.reserve(kPointBytes);
  out.push_back(0x04);
  Bytes xb = ScalarToBytes(p.x);
  Bytes yb = ScalarToBytes(p.y);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Result<P256Point> P256::Parse(const Bytes& bytes) {
  if (bytes.size() != kPointBytes || bytes[0] != 0x04) {
    return Status::CryptoError("P256: malformed point encoding");
  }
  P256Point p;
  p.infinity = false;
  p.x = ScalarFromBytes(bytes.data() + 1);
  p.y = ScalarFromBytes(bytes.data() + 33);
  if (!IsOnCurve(p)) {
    return Status::CryptoError("P256: point not on curve");
  }
  return p;
}

Scalar256 P256::RandomScalar(SecureRandom* rng) {
  for (;;) {
    Bytes b = rng->RandomBytes(32);
    Scalar256 k = ScalarFromBytes(b.data());
    if (IsZeroFe(k)) continue;
    if (CompareFe(k, kN) >= 0) continue;
    return k;
  }
}

Bytes ScalarToBytes(const Scalar256& s) {
  Bytes out(32);
  for (int i = 0; i < 4; ++i) {
    u64 limb = s[3 - i];  // big-endian output
    for (int b = 0; b < 8; ++b) {
      out[static_cast<size_t>(8 * i + b)] =
          static_cast<uint8_t>(limb >> (56 - 8 * b));
    }
  }
  return out;
}

Scalar256 ScalarFromBytes(const uint8_t bytes[32]) {
  Scalar256 s{};
  for (int i = 0; i < 4; ++i) {
    u64 limb = 0;
    for (int b = 0; b < 8; ++b) {
      limb = (limb << 8) | bytes[8 * i + b];
    }
    s[3 - i] = limb;
  }
  return s;
}

}  // namespace crypto
}  // namespace shuffledp
