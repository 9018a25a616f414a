#include "crypto/montgomery.h"

#include <algorithm>
#include <cassert>

namespace shuffledp {
namespace crypto {

namespace {

using u128 = unsigned __int128;

uint64_t NegInverse64(uint64_t m0) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;  // Newton: inv = m0^-1
  return ~inv + 1;
}

// Little-endian radix-2^52 digits of x < 2^(52 k).
std::vector<uint64_t> Digits52(const BigInt& x, size_t k) {
  std::vector<uint64_t> d(k);
  for (size_t j = 0; j < k; ++j) {
    const size_t w = 52 * j / 64;
    const unsigned r = 52 * j % 64;
    uint64_t v = x.limb(w) >> r;
    if (r > 12) v |= x.limb(w + 1) << (64 - r);
    d[j] = v & ((uint64_t{1} << 52) - 1);
  }
  return d;
}

// Sliding-window width by exponent size: table build (2^(w-1) multiplies)
// must amortize over ~ebits/(w+1) window multiplies.
unsigned WindowWidth(size_t ebits) {
  if (ebits <= 24) return 2;
  if (ebits <= 80) return 3;
  if (ebits <= 240) return 4;
  if (ebits <= 768) return 5;
  return 6;
}

}  // namespace

Result<MontgomeryCtx> MontgomeryCtx::Create(const BigInt& modulus) {
  if (modulus.IsZero() || !modulus.IsOdd() || modulus == BigInt(1)) {
    return Status::InvalidArgument("Montgomery: modulus must be odd and > 1");
  }
  MontgomeryCtx ctx;
  ctx.modulus_ = modulus;
  ctx.limbs_ = modulus.limb_count();
  ctx.mod_limbs_.resize(ctx.limbs_);
  for (size_t i = 0; i < ctx.limbs_; ++i) {
    ctx.mod_limbs_[i] = modulus.limb(i);
  }
  ctx.mod_digits_.resize(2 * ctx.limbs_);
  for (size_t i = 0; i < ctx.limbs_; ++i) {
    ctx.mod_digits_[2 * i] = static_cast<uint32_t>(ctx.mod_limbs_[i]);
    ctx.mod_digits_[2 * i + 1] = static_cast<uint32_t>(ctx.mod_limbs_[i] >> 32);
  }
  ctx.mu_ = NegInverse64(modulus.limb(0));
  // R mod m and R^2 mod m via the generic divider (one-time cost).
  BigInt r = BigInt(1).ShiftLeft(64 * ctx.limbs_);
  ctx.one_mont_ = r.Mod(modulus);
  ctx.rr_ = ctx.one_mont_.Mul(ctx.one_mont_).Mod(modulus);
  const BigInt rrr = ctx.rr_.Mul(ctx.one_mont_).Mod(modulus);
  ctx.one_mont_limbs_.resize(ctx.limbs_);
  ctx.rr_limbs_.resize(ctx.limbs_);
  ctx.rrr_limbs_.resize(ctx.limbs_);
  for (size_t i = 0; i < ctx.limbs_; ++i) {
    ctx.one_mont_limbs_[i] = ctx.one_mont_.limb(i);
    ctx.rr_limbs_[i] = ctx.rr_.limb(i);
    ctx.rrr_limbs_[i] = rrr.limb(i);
  }
  const size_t k = IfmaDigitsFor(ctx.limbs_);
  if (k != 0) {
    // R' = 2^(52k) = R * 2^s, so R' mod m is a one-quotient-digit Mod.
    ctx.mod52_ = Digits52(modulus, k);
    ctx.one52_ = Digits52(
        ctx.one_mont_.ShiftLeft(52 * k - 64 * ctx.limbs_).Mod(modulus), k);
    ctx.r52_ = Digits52(ctx.one_mont_, k);
  }
  return ctx;
}

void MontgomeryCtx::ReduceOnce(const uint64_t* v, uint64_t hi,
                               uint64_t* out) const {
  const size_t n = limbs_;
  bool ge = hi != 0;
  if (!ge) {
    ge = true;
    for (size_t i = n; i-- > 0;) {
      if (v[i] != mod_limbs_[i]) {
        ge = v[i] > mod_limbs_[i];
        break;
      }
    }
  }
  if (!ge) {
    if (out != v) std::copy(v, v + n, out);
    return;
  }
  u128 borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 diff = static_cast<u128>(v[i]) - mod_limbs_[i] - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) & 1;
  }
}

void MontgomeryCtx::MulInto(const uint64_t* a, const uint64_t* b,
                            uint64_t* out, Scratch* scratch) const {
  const size_t n = limbs_;
  uint64_t* t = scratch->buf_.data();  // uses n + 1 words
  std::fill_n(t, n + 1, 0);
  const uint64_t* mod = mod_limbs_.data();

  // Fused CIOS: one inner loop carries both the a*b[i] accumulation (c1
  // chain) and the m*mod reduction (c2 chain); each outer step shifts t
  // down one word. Invariant: t[0..n] < 2m at every outer-step boundary.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bi = b[i];
    u128 x = static_cast<u128>(a[0]) * bi + t[0];
    const uint64_t m = static_cast<uint64_t>(x) * mu_;
    u128 y = static_cast<u128>(m) * mod[0] + static_cast<uint64_t>(x);
    uint64_t c1 = static_cast<uint64_t>(x >> 64);
    uint64_t c2 = static_cast<uint64_t>(y >> 64);
    for (size_t j = 1; j < n; ++j) {
      x = static_cast<u128>(a[j]) * bi + t[j] + c1;
      c1 = static_cast<uint64_t>(x >> 64);
      y = static_cast<u128>(m) * mod[j] + static_cast<uint64_t>(x) + c2;
      t[j - 1] = static_cast<uint64_t>(y);
      c2 = static_cast<uint64_t>(y >> 64);
    }
    u128 z = static_cast<u128>(t[n]) + c1 + c2;
    t[n - 1] = static_cast<uint64_t>(z);
    t[n] = static_cast<uint64_t>(z >> 64);
  }
  ReduceOnce(t, t[n], out);
}

void MontgomeryCtx::RedcInto(uint64_t* t, uint64_t* out) const {
  const size_t n = limbs_;
  const uint64_t* mod = mod_limbs_.data();
  // SOS reduction over the 2n+1-word buffer: zero the low n words one at
  // a time, folding each carry into the upper half.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t m = t[i] * mu_;
    u128 carry = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 cur = static_cast<u128>(m) * mod[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    uint64_t c = static_cast<uint64_t>(carry);
    for (size_t k = i + n; c != 0 && k <= 2 * n; ++k) {
      u128 cur = static_cast<u128>(t[k]) + c;
      t[k] = static_cast<uint64_t>(cur);
      c = static_cast<uint64_t>(cur >> 64);
    }
  }
  ReduceOnce(t + n, t[2 * n], out);
}

void MontgomeryCtx::SqrInto(const uint64_t* a, uint64_t* out,
                            Scratch* scratch) const {
  const size_t n = limbs_;
  uint64_t* t = scratch->buf_.data();  // uses 2n + 1 words
  std::fill_n(t, 2 * n + 1, 0);

  // Off-diagonal products a[i]*a[j], i < j (half the schoolbook work).
  for (size_t i = 0; i + 1 < n; ++i) {
    const uint64_t ai = a[i];
    u128 carry = 0;
    for (size_t j = i + 1; j < n; ++j) {
      u128 cur = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    t[i + n] = static_cast<uint64_t>(carry);
  }
  // Double, then add the diagonal squares a[i]^2 at word 2i.
  uint64_t shift_carry = 0;
  for (size_t k = 0; k < 2 * n; ++k) {
    uint64_t v = t[k];
    t[k] = (v << 1) | shift_carry;
    shift_carry = v >> 63;
  }
  t[2 * n] = shift_carry;  // a^2 < 2^(128n), so this stays 0
  uint64_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 lo = static_cast<u128>(t[2 * i]) + static_cast<uint64_t>(sq) + c;
    t[2 * i] = static_cast<uint64_t>(lo);
    u128 hi = static_cast<u128>(t[2 * i + 1]) +
              static_cast<uint64_t>(sq >> 64) +
              static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    c = static_cast<uint64_t>(hi >> 64);
  }
  t[2 * n] += c;

  RedcInto(t, out);
}

void MontgomeryCtx::ToMontInto(const BigInt& a, uint64_t* out,
                               Scratch* scratch) const {
  const size_t n = limbs_;
  const BigInt reduced = a < modulus_ ? a : a.Mod(modulus_);
  for (size_t i = 0; i < n; ++i) out[i] = reduced.limb(i);
  MulInto(out, rr_limbs_.data(), out, scratch);
}

BigInt MontgomeryCtx::FromMontLimbs(const uint64_t* a,
                                    Scratch* scratch) const {
  const size_t n = limbs_;
  // REDC([a, 0..]) = a * R^-1 mod m. The scratch buffer doubles as the
  // 2n+1-word REDC workspace, so copy a into its low half first.
  uint64_t* t = scratch->buf_.data();
  std::copy(a, a + n, t);
  std::fill_n(t + n, n + 1, 0);
  std::vector<uint64_t> out(n);
  RedcInto(t, out.data());
  return BigInt::FromLimbsLittleEndian(std::move(out));
}

MontgomeryCtx::Scratch& MontgomeryCtx::ThreadScratch() const {
  thread_local Scratch scratch;
  scratch.EnsureFor(*this);
  return scratch;
}

std::vector<uint64_t>& MontgomeryCtx::ThreadOperand(int which) const {
  thread_local std::vector<uint64_t> ops[2];
  std::vector<uint64_t>& op = ops[which];
  if (op.size() < limbs_) op.resize(limbs_);
  return op;
}

BigInt MontgomeryCtx::MontMul(const BigInt& a, const BigInt& b) const {
  const size_t n = limbs_;
  assert(a < modulus_ && b < modulus_);
  std::vector<uint64_t>& pa = ThreadOperand(0);
  std::vector<uint64_t>& pb = ThreadOperand(1);
  for (size_t i = 0; i < n; ++i) {
    pa[i] = a.limb(i);
    pb[i] = b.limb(i);
  }
  std::vector<uint64_t> out(n);
  MulInto(pa.data(), pb.data(), out.data(), &ThreadScratch());
  return BigInt::FromLimbsLittleEndian(std::move(out));
}

BigInt MontgomeryCtx::MontSqr(const BigInt& a) const {
  const size_t n = limbs_;
  assert(a < modulus_);
  std::vector<uint64_t>& pa = ThreadOperand(0);
  for (size_t i = 0; i < n; ++i) pa[i] = a.limb(i);
  std::vector<uint64_t> out(n);
  SqrInto(pa.data(), out.data(), &ThreadScratch());
  return BigInt::FromLimbsLittleEndian(std::move(out));
}

BigInt MontgomeryCtx::ToMont(const BigInt& a) const {
  std::vector<uint64_t> out(limbs_);
  ToMontInto(a, out.data(), &ThreadScratch());
  return BigInt::FromLimbsLittleEndian(std::move(out));
}

BigInt MontgomeryCtx::FromMont(const BigInt& a) const {
  const size_t n = limbs_;
  assert(a < modulus_);
  std::vector<uint64_t>& pa = ThreadOperand(0);
  for (size_t i = 0; i < n; ++i) pa[i] = a.limb(i);
  return FromMontLimbs(pa.data(), &ThreadScratch());
}

BigInt MontgomeryCtx::ModMul(const BigInt& a, const BigInt& b) const {
  const size_t n = limbs_;
  const BigInt ra = a < modulus_ ? a : a.Mod(modulus_);
  const BigInt rb = b < modulus_ ? b : b.Mod(modulus_);
  std::vector<uint64_t>& pb = ThreadOperand(1);
  for (size_t i = 0; i < n; ++i) pb[i] = rb.limb(i);
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = ra.limb(i);
  // a*b*R^-1, then * R^2 * R^-1: two divisions-free passes total, and
  // only the returned BigInt's storage is allocated.
  Scratch& scratch = ThreadScratch();
  MulInto(out.data(), pb.data(), out.data(), &scratch);
  MulInto(out.data(), rr_limbs_.data(), out.data(), &scratch);
  return BigInt::FromLimbsLittleEndian(std::move(out));
}

BigInt MontgomeryCtx::ModExp(const BigInt& base,
                             const BigInt& exponent) const {
  if (exponent.IsZero()) return BigInt(1).Mod(modulus_);
  const BigInt b = base < modulus_ ? base : base.Mod(modulus_);
  if (b.IsZero()) return BigInt();
  const size_t n = limbs_;
  Scratch scratch(*this);

  const size_t ebits = exponent.BitLength();
  const unsigned w = WindowWidth(ebits);
  const size_t tsize = size_t{1} << (w - 1);

  // Odd-power table in Montgomery form: tbl[k] = b^(2k+1).
  std::vector<std::vector<uint64_t>> tbl(tsize, std::vector<uint64_t>(n));
  ToMontInto(b, tbl[0].data(), &scratch);
  if (tsize > 1) {
    std::vector<uint64_t> b2(n);
    SqrInto(tbl[0].data(), b2.data(), &scratch);
    for (size_t k = 1; k < tsize; ++k) {
      MulInto(tbl[k - 1].data(), b2.data(), tbl[k].data(), &scratch);
    }
  }

  std::vector<uint64_t> acc(n);
  bool have_acc = false;
  ptrdiff_t i = static_cast<ptrdiff_t>(ebits) - 1;
  while (i >= 0) {
    if (!exponent.GetBit(static_cast<size_t>(i))) {
      SqrInto(acc.data(), acc.data(), &scratch);
      --i;
      continue;
    }
    // Longest window [j, i] of width <= w ending on a set bit.
    ptrdiff_t j = i - static_cast<ptrdiff_t>(w) + 1;
    if (j < 0) j = 0;
    while (!exponent.GetBit(static_cast<size_t>(j))) ++j;
    uint64_t val = 0;
    for (ptrdiff_t k = i; k >= j; --k) {
      val = (val << 1) |
            (exponent.GetBit(static_cast<size_t>(k)) ? 1 : 0);
    }
    if (have_acc) {
      for (ptrdiff_t k = j; k <= i; ++k) {
        SqrInto(acc.data(), acc.data(), &scratch);
      }
      MulInto(acc.data(), tbl[val >> 1].data(), acc.data(), &scratch);
    } else {
      acc = tbl[val >> 1];
      have_acc = true;
    }
    i = j - 1;
  }
  return FromMontLimbs(acc.data(), &scratch);
}

}  // namespace crypto
}  // namespace shuffledp
