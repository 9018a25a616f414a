#include "crypto/ec_p256.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "crypto/secure_random.h"

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

// mu = -p^{-1} mod 2^64.
u64 ComputeMontgomeryMu(u64 p0) {
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - p0 * inv;  // Newton: inv = p0^-1
  return ~inv + 1;                                   // -inv
}

bool IsZeroFe(const Fe& a) {
  return (a[0] | a[1] | a[2] | a[3]) == 0;
}

int CompareFe(const Fe& a, const Fe& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// out = a + b, returns carry.
u64 AddFeRaw(const Fe& a, const Fe& b, Fe* out) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    (*out)[i] = static_cast<u64>(s);
    carry = s >> 64;
  }
  return static_cast<u64>(carry);
}

// out = a - b, returns borrow.
u64 SubFeRaw(const Fe& a, const Fe& b, Fe* out) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    (*out)[i] = static_cast<u64>(d);
    borrow = (d >> 64) & 1;
  }
  return static_cast<u64>(borrow);
}

/// Montgomery arithmetic context for a fixed 256-bit odd modulus.
class Mont256 {
 public:
  explicit Mont256(const Fe& modulus)
      : m_(modulus), mu_(ComputeMontgomeryMu(modulus[0])) {
    // r_mod = 2^256 mod m (m > 2^255, so a single subtraction suffices).
    Fe zero{};
    SubFeRaw(zero, m_, &r_mod_);  // 2^256 - m represented in 256 bits
    // rr_ = (2^256)^2 mod m via 256 modular doublings of r_mod.
    rr_ = r_mod_;
    for (int i = 0; i < 256; ++i) rr_ = AddMod(rr_, rr_);
    one_ = ToMont(Fe{1, 0, 0, 0});
  }

  const Fe& modulus() const { return m_; }
  const Fe& mont_one() const { return one_; }

  Fe AddMod(const Fe& a, const Fe& b) const {
    Fe sum;
    u64 carry = AddFeRaw(a, b, &sum);
    if (carry || CompareFe(sum, m_) >= 0) {
      Fe tmp;
      SubFeRaw(sum, m_, &tmp);
      return tmp;
    }
    return sum;
  }

  Fe SubMod(const Fe& a, const Fe& b) const {
    Fe diff;
    u64 borrow = SubFeRaw(a, b, &diff);
    if (borrow) {
      Fe tmp;
      AddFeRaw(diff, m_, &tmp);
      return tmp;
    }
    return diff;
  }

  // CIOS Montgomery multiplication: returns a*b*R^-1 mod m.
  Fe MontMul(const Fe& a, const Fe& b) const {
    u64 t[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      // t += a * b[i]
      u128 carry = 0;
      for (int j = 0; j < 4; ++j) {
        u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      u128 cur = static_cast<u128>(t[4]) + carry;
      t[4] = static_cast<u64>(cur);
      t[5] = static_cast<u64>(cur >> 64);

      // Reduce: add m * (t[0] * mu) and shift one limb.
      u64 m = t[0] * mu_;
      carry = (static_cast<u128>(m) * m_[0] + t[0]) >> 64;
      for (int j = 1; j < 4; ++j) {
        u128 cur2 = static_cast<u128>(m) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<u64>(cur2);
        carry = cur2 >> 64;
      }
      u128 cur3 = static_cast<u128>(t[4]) + carry;
      t[3] = static_cast<u64>(cur3);
      t[4] = t[5] + static_cast<u64>(cur3 >> 64);
      t[5] = 0;
    }
    Fe out = {t[0], t[1], t[2], t[3]};
    if (t[4] != 0 || CompareFe(out, m_) >= 0) {
      Fe tmp;
      SubFeRaw(out, m_, &tmp);
      out = tmp;
    }
    return out;
  }

  Fe ToMont(const Fe& a) const { return MontMul(a, rr_); }
  Fe FromMont(const Fe& a) const { return MontMul(a, Fe{1, 0, 0, 0}); }

  // a^e mod m with a in Montgomery form; e a plain integer.
  Fe MontPow(const Fe& a, const Fe& e) const {
    Fe acc = one_;
    for (int bit = 255; bit >= 0; --bit) {
      acc = MontMul(acc, acc);
      if ((e[bit / 64] >> (bit % 64)) & 1) acc = MontMul(acc, a);
    }
    return acc;
  }

  // Inverse via Fermat (m prime): a^(m-2).
  Fe MontInverse(const Fe& a) const {
    Fe e = m_;
    // e = m - 2
    Fe two = {2, 0, 0, 0};
    Fe exp;
    SubFeRaw(e, two, &exp);
    return MontPow(a, exp);
  }

 private:
  Fe m_;
  u64 mu_;
  Fe r_mod_;
  Fe rr_;
  Fe one_;
};

const Mont256& FieldCtx() {
  static const Mont256* ctx = new Mont256(kP);
  return *ctx;
}

// -(a) mod p, in the Montgomery domain (negation commutes with the domain).
Fe FeNeg(const Fe& a) {
  if (IsZeroFe(a)) return a;
  Fe out;
  SubFeRaw(kP, a, &out);
  return out;
}

// a^(2^n) by repeated Montgomery squaring.
Fe MontSqrN(Fe a, int n) {
  const Mont256& f = FieldCtx();
  for (int i = 0; i < n; ++i) a = f.MontMul(a, a);
  return a;
}

// a^(p-2) = a^-1 via a fixed addition chain (255 squarings, 12 multiplies;
// ~30% cheaper than square-and-multiply over p-2). Chain (addchain output
// for the P-256 field prime):
//   _111 = 7, _111111 = 2^6-1, x12 = 2^12-1, x15, x16, x32 = 2^32-1,
//   i53 = x32<<15, x47 = 2^47-1,
//   i263 = ((i53<<17 + 1)<<143 + x47)<<47,
//   result = (x47 + i263)<<2 + 1  ==  p - 2.
Fe FeInverse(const Fe& a) {
  const Mont256& f = FieldCtx();
  Fe t10 = f.MontMul(a, a);
  Fe t11 = f.MontMul(t10, a);
  Fe t110 = f.MontMul(t11, t11);
  Fe t111 = f.MontMul(t110, a);
  Fe t111111 = f.MontMul(MontSqrN(t111, 3), t111);
  Fe x12 = f.MontMul(MontSqrN(t111111, 6), t111111);
  Fe x15 = f.MontMul(MontSqrN(x12, 3), t111);
  Fe x16 = f.MontMul(MontSqrN(x15, 1), a);
  Fe x32 = f.MontMul(MontSqrN(x16, 16), x16);
  Fe i53 = MontSqrN(x32, 15);
  Fe x47 = f.MontMul(x15, i53);
  Fe i263 =
      MontSqrN(f.MontMul(MontSqrN(f.MontMul(MontSqrN(i53, 17), a), 143), x47),
               47);
  return f.MontMul(MontSqrN(f.MontMul(x47, i263), 2), a);
}

// Jacobian point, coordinates in Montgomery form. Infinity <=> z == 0.
struct Jacobian {
  Fe x, y, z;
};

// Affine point in the Montgomery domain (z == 1 implicitly). Only valid
// for non-infinite points; callers track infinity separately. The header
// declares it so P256Precomputed can hold a comb table without a copy.
using AffineMont = P256Precomputed::Entry;

bool JIsInfinity(const Jacobian& p) { return IsZeroFe(p.z); }

Jacobian JInfinity() { return Jacobian{Fe{}, Fe{}, Fe{}}; }

Jacobian ToJacobian(const P256Point& p) {
  if (p.infinity) return JInfinity();
  const Mont256& f = FieldCtx();
  return Jacobian{f.ToMont(p.x), f.ToMont(p.y), f.mont_one()};
}

P256Point ToAffine(const Jacobian& p) {
  if (JIsInfinity(p)) return P256Point{};
  const Mont256& f = FieldCtx();
  Fe zinv = FeInverse(p.z);
  Fe zinv2 = f.MontMul(zinv, zinv);
  Fe zinv3 = f.MontMul(zinv2, zinv);
  P256Point out;
  out.infinity = false;
  out.x = f.FromMont(f.MontMul(p.x, zinv2));
  out.y = f.FromMont(f.MontMul(p.y, zinv3));
  return out;
}

// Doubling with a = -3 (dbl-2001-b).
Jacobian JDouble(const Jacobian& p) {
  if (JIsInfinity(p) || IsZeroFe(p.y)) return JInfinity();
  const Mont256& f = FieldCtx();
  Fe delta = f.MontMul(p.z, p.z);
  Fe gamma = f.MontMul(p.y, p.y);
  Fe beta = f.MontMul(p.x, gamma);
  Fe t1 = f.SubMod(p.x, delta);
  Fe t2 = f.AddMod(p.x, delta);
  Fe t3 = f.MontMul(t1, t2);
  Fe alpha = f.AddMod(f.AddMod(t3, t3), t3);  // 3*(x-delta)*(x+delta)
  Fe alpha2 = f.MontMul(alpha, alpha);
  Fe beta2 = f.AddMod(beta, beta);
  Fe beta4 = f.AddMod(beta2, beta2);
  Fe beta8 = f.AddMod(beta4, beta4);
  Jacobian out;
  out.x = f.SubMod(alpha2, beta8);
  Fe yz = f.AddMod(p.y, p.z);
  Fe yz2 = f.MontMul(yz, yz);
  out.z = f.SubMod(f.SubMod(yz2, gamma), delta);
  Fe gamma2 = f.MontMul(gamma, gamma);
  Fe g2_2 = f.AddMod(gamma2, gamma2);
  Fe g2_4 = f.AddMod(g2_2, g2_2);
  Fe g2_8 = f.AddMod(g2_4, g2_4);
  Fe inner = f.SubMod(beta4, out.x);
  out.y = f.SubMod(f.MontMul(alpha, inner), g2_8);
  return out;
}

// General Jacobian addition.
Jacobian JAdd(const Jacobian& a, const Jacobian& b) {
  if (JIsInfinity(a)) return b;
  if (JIsInfinity(b)) return a;
  const Mont256& f = FieldCtx();
  Fe z1z1 = f.MontMul(a.z, a.z);
  Fe z2z2 = f.MontMul(b.z, b.z);
  Fe u1 = f.MontMul(a.x, z2z2);
  Fe u2 = f.MontMul(b.x, z1z1);
  Fe s1 = f.MontMul(f.MontMul(a.y, b.z), z2z2);
  Fe s2 = f.MontMul(f.MontMul(b.y, a.z), z1z1);
  Fe h = f.SubMod(u2, u1);
  Fe r = f.SubMod(s2, s1);
  if (IsZeroFe(h)) {
    if (IsZeroFe(r)) return JDouble(a);
    return JInfinity();
  }
  Fe hh = f.MontMul(h, h);
  Fe hhh = f.MontMul(hh, h);
  Fe v = f.MontMul(u1, hh);
  Fe r2 = f.MontMul(r, r);
  Jacobian out;
  out.x = f.SubMod(f.SubMod(r2, hhh), f.AddMod(v, v));
  out.y = f.SubMod(f.MontMul(r, f.SubMod(v, out.x)), f.MontMul(s1, hhh));
  out.z = f.MontMul(f.MontMul(a.z, b.z), h);
  return out;
}

// Mixed addition a + b with b affine (z2 = 1): saves ~4 multiplications
// per addition versus JAdd, which is what makes precomputed affine tables
// worthwhile. `b` must not be the point at infinity.
Jacobian JAddMixed(const Jacobian& a, const AffineMont& b) {
  const Mont256& f = FieldCtx();
  if (JIsInfinity(a)) return Jacobian{b.x, b.y, f.mont_one()};
  Fe z1z1 = f.MontMul(a.z, a.z);
  Fe u2 = f.MontMul(b.x, z1z1);
  Fe s2 = f.MontMul(f.MontMul(b.y, a.z), z1z1);
  Fe h = f.SubMod(u2, a.x);
  Fe r = f.SubMod(s2, a.y);
  if (IsZeroFe(h)) {
    if (IsZeroFe(r)) return JDouble(a);
    return JInfinity();
  }
  Fe hh = f.MontMul(h, h);
  Fe hhh = f.MontMul(hh, h);
  Fe v = f.MontMul(a.x, hh);
  Fe r2 = f.MontMul(r, r);
  Jacobian out;
  out.x = f.SubMod(f.SubMod(r2, hhh), f.AddMod(v, v));
  out.y = f.SubMod(f.MontMul(r, f.SubMod(v, out.x)), f.MontMul(a.y, hhh));
  out.z = f.MontMul(a.z, h);
  return out;
}

// Montgomery's simultaneous-inversion trick: normalizes `n` Jacobian
// points to affine (Montgomery-domain) coordinates with a single field
// inversion plus 3 multiplications per point. infinity[i] is set for
// inputs with z == 0 (whose out[] entry is untouched).
void BatchNormalize(const Jacobian* in, size_t n, AffineMont* out,
                    bool* infinity) {
  const Mont256& f = FieldCtx();
  std::vector<Fe> prefix(n);
  Fe acc = f.mont_one();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    if (!IsZeroFe(in[i].z)) acc = f.MontMul(acc, in[i].z);
  }
  Fe inv = FeInverse(acc);
  for (size_t i = n; i-- > 0;) {
    if (IsZeroFe(in[i].z)) {
      infinity[i] = true;
      continue;
    }
    infinity[i] = false;
    Fe zinv = f.MontMul(inv, prefix[i]);
    inv = f.MontMul(inv, in[i].z);
    Fe zinv2 = f.MontMul(zinv, zinv);
    Fe zinv3 = f.MontMul(zinv2, zinv);
    out[i].x = f.MontMul(in[i].x, zinv2);
    out[i].y = f.MontMul(in[i].y, zinv3);
  }
}

// Batch conversion all the way to plain-domain affine P256Points.
std::vector<P256Point> BatchToAffinePoints(const std::vector<Jacobian>& in) {
  const Mont256& f = FieldCtx();
  std::vector<AffineMont> aff(in.size());
  std::unique_ptr<bool[]> inf(new bool[in.size() + 1]);
  if (!in.empty()) {
    BatchNormalize(in.data(), in.size(), aff.data(), inf.get());
  }
  std::vector<P256Point> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (inf[i]) continue;  // default-constructed P256Point is infinity
    out[i].infinity = false;
    out[i].x = f.FromMont(aff[i].x);
    out[i].y = f.FromMont(aff[i].y);
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
// Fixed-point comb.
//
// Write k = sum_{j=0}^{31} 2^j (D_lo(j) + 2^32 D_hi(j)) with the 4-bit
// digits D_lo(j) built from bits {j, j+64, j+128, j+192} of k and D_hi(j)
// from bits {j+32, j+96, j+160, j+224}. Precomputing
//   lo[b] = (b0 + b1 2^64 + b2 2^128 + b3 2^192) P      (b = b3b2b1b0)
//   hi[b] = 2^32 lo[b]
// reduces k*P to 31 doublings plus at most 64 mixed additions.
// ---------------------------------------------------------------------------

// lo[b] at [b], hi[b] at [16 + b]; entries 0 and 16 (infinity) are unused.
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

// Constant-time scan of a 16-entry table: every entry is read and masked
// regardless of `idx`. idx must be in [1, 15]; index 0 (infinity) is never
// selected because zero digits skip the addition entirely.
AffineMont CtSelect16(const AffineMont* table, uint32_t idx) {
  AffineMont out{};
  for (uint32_t i = 1; i < 16; ++i) {
    u64 mask = (static_cast<u64>(i ^ idx) - 1) >> 63;  // 1 iff i == idx
    mask = static_cast<u64>(0) - mask;                 // all-ones iff match
    for (int j = 0; j < 4; ++j) {
      out.x[j] |= table[i].x[j] & mask;
      out.y[j] |= table[i].y[j] & mask;
    }
  }
  return out;
}

Jacobian CombMultJ(const CombTable& t, const Scalar256& k) {
  Jacobian acc = JInfinity();
  for (int j = 31; j >= 0; --j) {
    acc = JDouble(acc);
    uint32_t dlo = ScalarBit(k, j) | (ScalarBit(k, j + 64) << 1) |
                   (ScalarBit(k, j + 128) << 2) | (ScalarBit(k, j + 192) << 3);
    uint32_t dhi = ScalarBit(k, j + 32) | (ScalarBit(k, j + 96) << 1) |
                   (ScalarBit(k, j + 160) << 2) |
                   (ScalarBit(k, j + 224) << 3);
    if (dlo != 0) acc = JAddMixed(acc, CtSelect16(t.data(), dlo));
    if (dhi != 0) acc = JAddMixed(acc, CtSelect16(t.data() + 16, dhi));
  }
  return acc;
}

std::vector<P256Point> CombMultBatch(const CombTable& t,
                                     const std::vector<Scalar256>& ks) {
  std::vector<Jacobian> points;
  points.reserve(ks.size());
  for (const Scalar256& k : ks) points.push_back(CombMultJ(t, k));
  return BatchToAffinePoints(points);
}

// ---------------------------------------------------------------------------
// Width-5 wNAF for variable points: digits are zero or odd in [-15, 15],
// with at least 4 zeros between nonzero digits (expected density 1/6).
// ---------------------------------------------------------------------------

constexpr int kWnafWidth = 5;
constexpr int kWnafMaxDigits = 260;  // 256-bit scalar + borrow headroom
constexpr int kWnafTableSize = 8;    // odd multiples {1,3,...,15}P

// Recodes k into wNAF digits (little-endian); returns the digit count.
int WnafRecode(const Scalar256& k, int8_t* digits) {
  u64 x[5] = {k[0], k[1], k[2], k[3], 0};
  int len = 0;
  auto is_zero = [&x] { return (x[0] | x[1] | x[2] | x[3] | x[4]) == 0; };
  while (!is_zero()) {
    int8_t d = 0;
    if (x[0] & 1) {
      int v = static_cast<int>(x[0] & ((1u << kWnafWidth) - 1));
      if (v >= (1 << (kWnafWidth - 1))) v -= 1 << kWnafWidth;
      d = static_cast<int8_t>(v);
      if (v > 0) {
        // x -= v
        u64 borrow = static_cast<u64>(v);
        for (int i = 0; i < 5 && borrow; ++i) {
          u64 prev = x[i];
          x[i] -= borrow;
          borrow = x[i] > prev ? 1 : 0;
        }
      } else {
        // x += -v
        u64 carry = static_cast<u64>(-v);
        for (int i = 0; i < 5 && carry; ++i) {
          x[i] += carry;
          carry = x[i] < carry ? 1 : 0;
        }
      }
    }
    digits[len++] = d;
    for (int i = 0; i < 4; ++i) x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    x[4] >>= 1;
  }
  return len;
}

}  // namespace

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
  int8_t digits[kWnafMaxDigits];
  const int len = WnafRecode(k, digits);

  // Odd multiples {1,3,...,15}P_i in Jacobian form, 8 per point. Infinity
  // inputs keep an all-infinity table and are skipped below.
  std::vector<Jacobian> jtables(n * kWnafTableSize, JInfinity());
  for (size_t i = 0; i < n; ++i) {
    if (points[i].infinity) continue;
    Jacobian* odd = &jtables[i * kWnafTableSize];
    odd[0] = ToJacobian(points[i]);
    Jacobian p2 = JDouble(odd[0]);
    for (int m = 1; m < kWnafTableSize; ++m) odd[m] = JAdd(odd[m - 1], p2);
  }
  // One inversion normalizes every table. Odd multiples of an on-curve
  // point of prime order are never infinity.
  std::vector<AffineMont> tables(jtables.size());
  std::unique_ptr<bool[]> inf(new bool[jtables.size() + 1]);
  if (!jtables.empty()) {
    BatchNormalize(jtables.data(), jtables.size(), tables.data(), inf.get());
  }

  std::vector<Jacobian> out(n, JInfinity());
  for (size_t i = 0; i < n; ++i) {
    if (points[i].infinity) continue;
    const AffineMont* odd = &tables[i * kWnafTableSize];
    Jacobian acc = JInfinity();
    for (int j = len - 1; j >= 0; --j) {
      acc = JDouble(acc);
      const int d = digits[j];
      if (d > 0) {
        acc = JAddMixed(acc, odd[(d - 1) >> 1]);
      } else if (d < 0) {
        const AffineMont& e = odd[(-d - 1) >> 1];
        acc = JAddMixed(acc, AffineMont{e.x, FeNeg(e.y)});
      }
    }
    out[i] = acc;
  }
  return BatchToAffinePoints(out);
}

P256Point P256::ScalarBaseMult(const Scalar256& k) {
  return ToAffine(CombMultJ(BaseCombTable(), k));
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
  if (point_.infinity) return P256Point{};
  return ToAffine(CombMultJ(comb_, k));
}

std::vector<P256Point> P256Precomputed::MultBatch(
    const std::vector<Scalar256>& ks) const {
  if (point_.infinity) return std::vector<P256Point>(ks.size());
  return CombMultBatch(comb_, ks);
}

bool P256::IsOnCurve(const P256Point& p) {
  if (p.infinity) return true;
  if (CompareFe(p.x, kP) >= 0 || CompareFe(p.y, kP) >= 0) return false;
  const Mont256& f = FieldCtx();
  Fe x = f.ToMont(p.x);
  Fe y = f.ToMont(p.y);
  Fe b = f.ToMont(kB);
  // y^2 == x^3 - 3x + b
  Fe y2 = f.MontMul(y, y);
  Fe x2 = f.MontMul(x, x);
  Fe x3 = f.MontMul(x2, x);
  Fe three_x = f.AddMod(f.AddMod(x, x), x);
  Fe rhs = f.AddMod(f.SubMod(x3, three_x), b);
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
