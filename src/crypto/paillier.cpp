#include "crypto/paillier.h"

#include <algorithm>
#include <cassert>

namespace shuffledp {
namespace crypto {

namespace {

// Bits [lo_bit, lo_bit + width) of v as a word (width <= 64).
uint64_t ExtractBits(const BigInt& v, size_t lo_bit, unsigned width) {
  assert(width >= 1 && width <= 64);
  const size_t limb = lo_bit / 64;
  const size_t shift = lo_bit % 64;
  unsigned __int128 window =
      static_cast<unsigned __int128>(v.limb(limb)) |
      (static_cast<unsigned __int128>(v.limb(limb + 1)) << 64);
  uint64_t out = static_cast<uint64_t>(window >> shift);
  if (width == 64) return out;
  return out & ((uint64_t{1} << width) - 1);
}

std::shared_ptr<const MontgomeryCtx> MakeCtx(const BigInt& modulus) {
  auto ctx = MontgomeryCtx::Create(modulus);
  if (!ctx.ok()) return nullptr;
  return std::make_shared<const MontgomeryCtx>(std::move(ctx).value());
}

// Per-thread kernel workspace for the randomizer hot loop (one
// Rerandomize per ciphertext per EOS round): no scratch/mask allocation
// per call, only the returned BigInt's storage.
MontgomeryCtx::Scratch& TlsScratch(const MontgomeryCtx& ctx) {
  thread_local MontgomeryCtx::Scratch scratch;
  scratch.EnsureFor(ctx);
  return scratch;
}

std::vector<uint64_t>& TlsMaskBuf(size_t limbs, int which = 0) {
  thread_local std::vector<uint64_t> bufs[2];
  std::vector<uint64_t>& buf = bufs[which];
  if (buf.size() < limbs) buf.resize(limbs);
  return buf;
}

// 1 if x == y else 0, branchless (for the constant-time comb select).
uint64_t CtEq(uint64_t x, uint64_t y) {
  uint64_t d = x ^ y;
  return 1 ^ ((d | (0 - d)) >> 63);
}

// L_n(x) = (x - 1) / n. Pre: x == 1 mod n.
BigInt LFunction(const BigInt& x, const BigInt& n) {
  BigInt q;
  Status st = x.Sub(BigInt(1)).DivMod(n, &q, nullptr);
  assert(st.ok());
  (void)st;
  return q;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigInt n)
    : n_(std::move(n)), n_squared_(n_.Mul(n_)) {
  if (!n_.IsZero() && n_squared_.IsOdd() && n_squared_.limb_count() >= 1) {
    n2_ctx_ = MakeCtx(n_squared_);
  }
}

BigInt PaillierPublicKey::GToM(const BigInt& m_reduced) const {
  // g = N + 1: g^m = 1 + m*N mod N^2, and for m < N the integer 1 + m*N
  // is already < N^2 — no reduction needed.
  return BigInt(1).Add(m_reduced.Mul(n_));
}

Result<PaillierCiphertext> PaillierPublicKey::Encrypt(
    const BigInt& m, SecureRandom* rng) const {
  if (n_.IsZero()) {
    return Status::FailedPrecondition("Paillier public key not initialized");
  }
  if (m >= n_) {
    return Status::InvalidArgument("Paillier plaintext >= N");
  }
  const BigInt r = SampleRandomizer(rng);

  // c = (1 + m*N) * r^N mod N^2. The final combine goes through
  // BigInt::ModMul, which picks the division path for production-size
  // N^2 (>= Karatsuba threshold) — there the short 1 + m*N operand of a
  // share-sized plaintext makes the subquadratic multiply beat a
  // fixed-width CIOS pass — and cached Montgomery below it.
  BigInt r_to_n = n2_ctx_ != nullptr ? n2_ctx_->ModExp(r, n_)
                                     : r.ModExp(n_, n_squared_);
  return PaillierCiphertext{GToM(m).ModMul(r_to_n, n_squared_)};
}

BigInt PaillierPublicKey::SampleRandomizer(SecureRandom* rng) const {
  // r uniform in [1, N) with gcd(r, N) = 1 (overwhelming for random r).
  BigInt r;
  do {
    r = BigInt::RandomBelow(n_, rng);
  } while (r.IsZero() || BigInt::Gcd(r, n_) != BigInt(1));
  return r;
}

Result<PaillierCiphertext> PaillierPublicKey::EncryptU64(
    uint64_t m, SecureRandom* rng) const {
  return Encrypt(BigInt(m), rng);
}

PaillierCiphertext PaillierPublicKey::Add(const PaillierCiphertext& a,
                                          const PaillierCiphertext& b) const {
  if (n2_ctx_ != nullptr) {
    return PaillierCiphertext{n2_ctx_->ModMul(a.value, b.value)};
  }
  return PaillierCiphertext{a.value.ModMul(b.value, n_squared_)};
}

PaillierCiphertext PaillierPublicKey::AddPlain(const PaillierCiphertext& c,
                                               const BigInt& m) const {
  // Generic ModMul on purpose: g^m = 1 + m*N is a short operand for the
  // small plaintext adjustments the protocols add, which the
  // subquadratic multiply exploits and a fixed-width CIOS pass cannot.
  BigInt g_to_m = GToM(m < n_ ? m : m.Mod(n_));
  return PaillierCiphertext{c.value.ModMul(g_to_m, n_squared_)};
}

PaillierCiphertext PaillierPublicKey::ScalarMult(const PaillierCiphertext& c,
                                                 const BigInt& k) const {
  if (n2_ctx_ != nullptr) {
    return PaillierCiphertext{n2_ctx_->ModExp(c.value, k)};
  }
  return PaillierCiphertext{c.value.ModExp(k, n_squared_)};
}

PaillierCiphertext PaillierPublicKey::TrivialEncrypt(const BigInt& m) const {
  return PaillierCiphertext{GToM(m < n_ ? m : m.Mod(n_))};
}

void PaillierPublicKey::AddPlainMontInto(
    uint64_t* c_mont, const BigInt& m,
    MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  const MontgomeryCtx& ctx = *n2_ctx_;
  // g^m = 1 + mN enters the domain once (one CIOS pass against R^2),
  // then multiplies in with a second — no division anywhere.
  std::vector<uint64_t>& g_mont = TlsMaskBuf(ctx.limbs());
  ctx.ToMontInto(GToM(m < n_ ? m : m.Mod(n_)), g_mont.data(), scratch);
  ctx.MulInto(c_mont, g_mont.data(), c_mont, scratch);
}

void PaillierPublicKey::AddPlainMontManyInto(
    size_t k, uint64_t* const* c_mont, const BigInt* ms,
    MontgomeryCtx::Scratch* scratch) const {
  assert(n2_ctx_ != nullptr);
  const MontgomeryCtx& ctx = *n2_ctx_;
  const size_t n = ctx.limbs();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  std::vector<uint64_t>& gbuf = TlsMaskBuf(kLanes * n);
  BigInt gs[kLanes];
  const BigInt* gptr[kLanes];
  uint64_t* glane[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    gptr[l] = &gs[l];
    glane[l] = gbuf.data() + l * n;
  }
  for (size_t done = 0; done < k; done += kLanes) {
    const size_t kb = std::min(kLanes, k - done);
    for (size_t l = 0; l < kb; ++l) {
      const BigInt& m = ms[done + l];
      gs[l] = GToM(m < n_ ? m : m.Mod(n_));
    }
    // Both CIOS passes of the scalar kernel, k lanes wide: the g^m
    // operands enter the domain together, then multiply in together.
    ctx.ToMontManyInto(kb, gptr, glane, scratch);
    ctx.MulManyInto(kb, c_mont + done, glane, c_mont + done, scratch);
  }
}

Bytes PaillierPublicKey::SerializeCiphertext(
    const PaillierCiphertext& c) const {
  return c.value.ToBytesBigEndian(CiphertextBytes());
}

Result<PaillierCiphertext> PaillierPublicKey::ParseCiphertext(
    const Bytes& bytes) const {
  if (bytes.size() != CiphertextBytes()) {
    return Status::DataLoss("Paillier ciphertext has wrong length");
  }
  BigInt v = BigInt::FromBytesBigEndian(bytes);
  if (v >= n_squared_) {
    return Status::CryptoError("Paillier ciphertext out of range");
  }
  return PaillierCiphertext{std::move(v)};
}

Result<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(const BigInt& p,
                                                          const BigInt& q) {
  if (p == q) return Status::InvalidArgument("Paillier: p == q");
  PaillierPrivateKey key;
  key.p_ = p;
  key.q_ = q;
  key.p_squared_ = p.Mul(p);
  key.q_squared_ = q.Mul(q);
  key.p_minus_1_ = p.Sub(BigInt(1));
  key.q_minus_1_ = q.Sub(BigInt(1));
  BigInt n = p.Mul(q);
  key.pub_ = PaillierPublicKey(n);
  key.p2_ctx_ = MakeCtx(key.p_squared_);
  key.q2_ctx_ = MakeCtx(key.q_squared_);
  if (key.p2_ctx_ == nullptr || key.q2_ctx_ == nullptr) {
    return Status::InvalidArgument("Paillier: primes must be odd and > 1");
  }

  // With g = N + 1:  g^{p-1} mod p^2 = 1 + (p-1)*N mod p^2, so
  // hp = ( L_p(g^{p-1} mod p^2) )^{-1} mod p.
  const BigInt g = n.Add(BigInt(1));
  // Key setup exponentiates by the secret p-1 / q-1: constant-time.
  BigInt gp = key.p2_ctx_->CtModExp(g, key.p_minus_1_);
  BigInt gq = key.q2_ctx_->CtModExp(g, key.q_minus_1_);
  auto hp = LFunction(gp, p).Mod(p).ModInverse(p);
  if (!hp.ok()) return Status::CryptoError("Paillier: hp not invertible");
  auto hq = LFunction(gq, q).Mod(q).ModInverse(q);
  if (!hq.ok()) return Status::CryptoError("Paillier: hq not invertible");
  key.hp_ = *hp;
  key.hq_ = *hq;

  auto q_inv = q.ModInverse(p);
  if (!q_inv.ok()) return Status::CryptoError("Paillier: q not invertible");
  key.q_sq_inv_mod_p_sq_ = *q_inv;  // actually q^{-1} mod p for Garner CRT
  return key;
}

BigInt PaillierPrivateKey::RecoverHalf(const MontgomeryCtx& ctx,
                                       const BigInt& c_reduced,
                                       const BigInt& prime,
                                       const BigInt& prime_minus_1,
                                       const BigInt& h) const {
  // p-1 / q-1 are equivalent to the factorization: constant-time ladder.
  BigInt cx = ctx.CtModExp(c_reduced, prime_minus_1);
  return LFunction(cx, prime).ModMul(h, prime);
}

BigInt PaillierPrivateKey::CrtCombine(const BigInt& mp,
                                      const BigInt& mq) const {
  // Garner recombination: m = mq + q * ((mp - mq) * q^{-1} mod p).
  BigInt mq_mod_p = mq.Mod(p_);
  BigInt diff =
      mp >= mq_mod_p ? mp.Sub(mq_mod_p) : mp.Add(p_).Sub(mq_mod_p);
  BigInt h = diff.ModMul(q_sq_inv_mod_p_sq_, p_);
  return mq.Add(q_.Mul(h));
}

Result<BigInt> PaillierPrivateKey::Decrypt(const PaillierCiphertext& c) const {
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (c.value >= pub_.n_squared() || c.value.IsZero()) {
    return Status::CryptoError("Paillier: ciphertext out of range");
  }
  // CRT decryption: m_p = L_p(c^{p-1} mod p^2) * hp mod p, same for q.
  BigInt mp = RecoverHalf(*p2_ctx_, c.value.Mod(p_squared_), p_,
                          p_minus_1_, hp_);
  BigInt mq = RecoverHalf(*q2_ctx_, c.value.Mod(q_squared_), q_,
                          q_minus_1_, hq_);
  return CrtCombine(mp, mq);
}

Result<uint64_t> PaillierPrivateKey::DecryptMod2Ell(
    const PaillierCiphertext& c, unsigned ell) const {
  assert(ell >= 1 && ell <= 64);
  auto m = Decrypt(c);
  if (!m.ok()) return m.status();
  // m < N, little-endian limbs: limb 0 is exactly the low 64 bits.
  uint64_t low = m->limb(0);
  if (ell == 64) return low;
  return low & ((uint64_t{1} << ell) - 1);
}

size_t PaillierPrivateKey::PackedSlotCapacity(unsigned slot_bits) const {
  const size_t n_bits = pub_.n().BitLength();
  if (slot_bits == 0 || n_bits < 2) return 1;
  // Packed plaintext must stay < 2^(n_bits - 1) <= N.
  const size_t cap = (n_bits - 1) / slot_bits;
  return cap == 0 ? 1 : cap;
}

Status PaillierPrivateKey::DecryptPackedMod2Ell(const PaillierCiphertext* cs,
                                                size_t count,
                                                unsigned slot_bits,
                                                unsigned ell,
                                                uint64_t* out) const {
  if (count == 0) return Status::OK();
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (ell < 1 || ell > 64 || slot_bits < ell) {
    return Status::InvalidArgument("Paillier: bad packed slot layout");
  }
  if (count > PackedSlotCapacity(slot_bits)) {
    return Status::InvalidArgument("Paillier: pack group exceeds capacity");
  }
  for (size_t i = 0; i < count; ++i) {
    if (cs[i].value.IsZero() || cs[i].value >= pub_.n_squared()) {
      return Status::CryptoError("Paillier: ciphertext out of range");
    }
  }

  // Horner over one CRT residue: acc = prod_i c_i^(2^(slot_bits * i)),
  // i.e. each slot's plaintext lands at bit offset slot_bits * i. Every
  // ciphertext enters the Montgomery domain once, the accumulator stays
  // there across the whole group, and one conversion exits.
  auto packed_residue = [&](const MontgomeryCtx& ctx) -> BigInt {
    const size_t n = ctx.limbs();
    MontgomeryCtx::Scratch scratch(ctx);
    std::vector<uint64_t> acc(n), ci(n);
    ctx.ToMontInto(cs[count - 1].value, acc.data(), &scratch);
    for (size_t i = count - 1; i-- > 0;) {
      for (unsigned b = 0; b < slot_bits; ++b) {
        ctx.SqrInto(acc.data(), acc.data(), &scratch);
      }
      ctx.ToMontInto(cs[i].value, ci.data(), &scratch);
      ctx.MulInto(acc.data(), ci.data(), acc.data(), &scratch);
    }
    return ctx.FromMontLimbs(acc.data(), &scratch);
  };

  BigInt mp = RecoverHalf(*p2_ctx_, packed_residue(*p2_ctx_), p_,
                          p_minus_1_, hp_);
  BigInt mq = RecoverHalf(*q2_ctx_, packed_residue(*q2_ctx_), q_,
                          q_minus_1_, hq_);
  BigInt packed = CrtCombine(mp, mq);

  // ExtractBits truncates to exactly ell bits (validated <= 64 above).
  for (size_t i = 0; i < count; ++i) {
    out[i] = ExtractBits(packed, i * static_cast<size_t>(slot_bits), ell);
  }
  return Status::OK();
}

Status PaillierPrivateKey::DecryptPackedMod2EllBatch(
    const PaillierCiphertext* cs, size_t count, unsigned slot_bits,
    unsigned ell, uint64_t* out) const {
  if (count == 0) return Status::OK();
  if (p_.IsZero()) {
    return Status::FailedPrecondition("Paillier private key not initialized");
  }
  if (ell < 1 || ell > 64 || slot_bits < ell) {
    return Status::InvalidArgument("Paillier: bad packed slot layout");
  }
  for (size_t i = 0; i < count; ++i) {
    if (cs[i].value.IsZero() || cs[i].value >= pub_.n_squared()) {
      return Status::CryptoError("Paillier: ciphertext out of range");
    }
  }
  // Balanced pack groups: the fewest groups that fit the capacity,
  // rounded up to whole lane blocks, each taking floor(count / groups) or
  // ceil(count / groups) consecutive rows (the first count % groups get
  // the extra row). Every Horner chain and CRT modexp then runs as a full
  // kMaxBatchLanes block; a lane with fewer rows than the deepest is
  // topped with the ciphertext 1 = Enc(0; 1), whose slots are zero, and a
  // lane with no rows is padding that never writes `out`. The layout is a
  // function of (count, capacity) alone, and every kernel returns
  // canonical values, so each slot equals per-row DecryptMod2Ell.
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  const size_t cap = PackedSlotCapacity(slot_bits);
  const size_t min_groups = (count + cap - 1) / cap;
  const size_t groups = (min_groups + kLanes - 1) / kLanes * kLanes;
  const size_t base = count / groups;
  const size_t extra = count % groups;
  const size_t depth = base + (extra > 0 ? 1 : 0);
  auto group_start = [&](size_t g) { return g * base + std::min(g, extra); };
  auto group_rows = [&](size_t g) { return base + (g < extra ? 1 : 0); };

  const BigInt one(1);
  std::vector<BigInt> mps(groups), mqs(groups);
  auto halves = [&](const MontgomeryCtx& ctx, const BigInt& prime,
                    const BigInt& prime_minus_1, const BigInt& h,
                    std::vector<BigInt>* outs) {
    const size_t n = ctx.limbs();
    MontgomeryCtx::Scratch scratch(ctx);
    scratch.EnsureLanes(ctx, kLanes);
    std::vector<uint64_t> accv(kLanes * n), civ(kLanes * n);
    std::vector<uint64_t> one_plain(n, 0);
    one_plain[0] = 1;
    uint64_t* acc[kLanes];
    uint64_t* ci[kLanes];
    const uint64_t* ones[kLanes];
    const BigInt* vs[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      acc[l] = accv.data() + l * n;
      ci[l] = civ.data() + l * n;
      ones[l] = one_plain.data();
    }
    for (size_t g0 = 0; g0 < groups; g0 += kLanes) {
      auto load = [&](size_t pos) {
        for (size_t l = 0; l < kLanes; ++l) {
          vs[l] = pos < group_rows(g0 + l)
                      ? &cs[group_start(g0 + l) + pos].value
                      : &one;
        }
      };
      // Horner over the block, slot i of each group at bit offset
      // slot_bits * i: the squarings/multiplies that dominate a packed
      // decryption run as interleaved lanes.
      load(depth - 1);
      ctx.ToMontManyInto(kLanes, vs, acc, &scratch);
      for (size_t pos = depth - 1; pos-- > 0;) {
        for (unsigned b = 0; b < slot_bits; ++b) {
          ctx.SqrManyInto(kLanes, acc, acc, &scratch);
        }
        load(pos);
        ctx.ToMontManyInto(kLanes, vs, ci, &scratch);
        ctx.MulManyInto(kLanes, acc, ci, acc, &scratch);
      }
      // c^(m-1) with the shared secret exponent on the ct ladder; exit
      // the domain through the ct multiply by plain one.
      ctx.CtModExpManyInto(kLanes, acc, prime_minus_1, 0, acc, &scratch);
      ctx.CtMulManyInto(kLanes, acc, ones, acc, &scratch);
      for (size_t l = 0; l < kLanes; ++l) {
        if (group_rows(g0 + l) == 0) continue;
        BigInt cx = BigInt::FromLimbsLittleEndian(
            std::vector<uint64_t>(acc[l], acc[l] + n));
        (*outs)[g0 + l] = LFunction(cx, prime).ModMul(h, prime);
      }
    }
  };
  halves(*p2_ctx_, p_, p_minus_1_, hp_, &mps);
  halves(*q2_ctx_, q_, q_minus_1_, hq_, &mqs);
  for (size_t g = 0; g < groups; ++g) {
    const size_t rows = group_rows(g);
    if (rows == 0) continue;
    const BigInt packed = CrtCombine(mps[g], mqs[g]);
    uint64_t* dst = out + group_start(g);
    for (size_t i = 0; i < rows; ++i) {
      dst[i] = ExtractBits(packed, i * static_cast<size_t>(slot_bits), ell);
    }
  }
  return Status::OK();
}

Result<PaillierKeyPair> PaillierGenerateKeyPair(size_t modulus_bits,
                                                SecureRandom* rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("Paillier modulus too small");
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    BigInt p = BigInt::GeneratePrime(modulus_bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) continue;
    BigInt n = p.Mul(q);
    BigInt phi = p.Sub(BigInt(1)).Mul(q.Sub(BigInt(1)));
    if (BigInt::Gcd(n, phi) != BigInt(1)) continue;
    auto priv = PaillierPrivateKey::FromPrimes(p, q);
    if (!priv.ok()) continue;
    PaillierKeyPair kp;
    kp.pub = priv->public_key();
    kp.priv = std::move(priv).value();
    return kp;
  }
  return Status::Internal("Paillier key generation failed repeatedly");
}

RandomizerPool::RandomizerPool(const PaillierPublicKey& pub, size_t size,
                               SecureRandom* rng, Mode mode,
                               ThreadPool* fanout, unsigned short_exp_bits)
    : pub_(&pub), mode_(mode) {
  if (mode_ == Mode::kFixedBase && pub.n2_ctx() == nullptr) {
    mode_ = Mode::kPairwise;  // uninitialized key; keep the legacy path
  }
  if (mode_ == Mode::kPairwise) {
    assert(size >= 2);
    const MontgomeryCtx* ctx = pub.n2_ctx();
    if (ctx == nullptr) {
      // No Montgomery context: plain Enc(0) values back the fallback.
      pool_.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        auto enc_zero = pub.Encrypt(BigInt(), rng);
        assert(enc_zero.ok());
        pool_.push_back(std::move(enc_zero)->value);
      }
      return;
    }
    // Enc(0) = r^N mod N^2 (g^0 = 1). The randomizers are drawn serially,
    // exactly as `size` Encrypt calls would draw them; the N-th powers
    // share the public exponent N, so they run as one batch ladder per
    // kMaxBatchLanes block, and the blocks fan out over `fanout`. Every
    // kernel returns the canonical residue, so each entry is bitwise
    // ToMont(Encrypt(0)) for its r.
    std::vector<BigInt> rs(size);
    for (BigInt& r : rs) r = pub.SampleRandomizer(rng);
    pool_mont_.assign(size, std::vector<uint64_t>(ctx->limbs()));
    constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
    ForChunks(fanout, 0, size, kLanes, [&](uint64_t lo, uint64_t hi) {
      const size_t k = hi - lo;
      MontgomeryCtx::Scratch scratch(*ctx);
      scratch.EnsureLanes(*ctx, k);
      const BigInt* in[kLanes];
      uint64_t* out[kLanes];
      for (size_t l = 0; l < k; ++l) {
        in[l] = &rs[lo + l];
        out[l] = pool_mont_[lo + l].data();
      }
      ctx->ToMontManyInto(k, in, out, &scratch);
      ctx->CtModExpManyInto(k, out, pub.n(), 0, out, &scratch);
    });
    return;
  }

  // kFixedBase: h = r0^N (one full-width Enc(0)), then radix-16 comb
  // tables over the short exponent width.
  short_exp_bits_ = ((short_exp_bits + 7) / 8) * 8;
  if (short_exp_bits_ < 64) short_exp_bits_ = 64;
  auto h = pub.Encrypt(BigInt(), rng);
  assert(h.ok());
  const MontgomeryCtx& ctx = *pub.n2_ctx();
  const size_t n = ctx.limbs();
  const size_t windows = (short_exp_bits_ + 3) / 4;
  fb_table_.assign(windows * 15, std::vector<uint64_t>(n));
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<uint64_t> base(n);
  ctx.ToMontInto(h->value, base.data(), &scratch);
  for (size_t w = 0; w < windows; ++w) {
    fb_table_[w * 15] = base;  // h^(1 * 16^w)
    for (unsigned d = 2; d <= 15; ++d) {
      ctx.MulInto(fb_table_[w * 15 + d - 2].data(), base.data(),
                  fb_table_[w * 15 + d - 1].data(), &scratch);
    }
    if (w + 1 < windows) {
      for (int s = 0; s < 4; ++s) {
        ctx.SqrInto(base.data(), base.data(), &scratch);  // base^16
      }
    }
  }
}

void RandomizerPool::FreshMaskMont(SecureRandom* rng, uint64_t* out,
                                   MontgomeryCtx::Scratch* scratch) const {
  assert(mode_ == Mode::kFixedBase);
  // h^r for r uniform in [0, 2^short_exp_bits): one comb pass, no
  // squarings (the tables absorb the radix shifts). The exponent is the
  // mask's secret, so every window multiplies: the operand is selected
  // branchlessly from {one_mont, table entries}, digit 0 contributing an
  // identity multiply instead of the skip that used to leak the zero-
  // digit count through timing. Values (and rng draws) are unchanged.
  const MontgomeryCtx& ctx = *pub_->n2_ctx();
  const size_t n = ctx.limbs();
  const BigInt e =
      BigInt::FromBytesBigEndian(rng->RandomBytes(short_exp_bits_ / 8));
  std::copy(ctx.one_mont_limbs().begin(), ctx.one_mont_limbs().end(), out);
  std::vector<uint64_t>& op = TlsMaskBuf(n, 1);
  const size_t windows = (short_exp_bits_ + 3) / 4;
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t digit = (e.limb(w / 16) >> (4 * (w % 16))) & 0xF;
    std::fill_n(op.data(), n, 0);
    for (uint64_t d = 0; d < 16; ++d) {
      const uint64_t* src = d == 0 ? ctx.one_mont_limbs().data()
                                   : fb_table_[w * 15 + d - 1].data();
      const uint64_t msk = 0 - CtEq(d, digit);
      for (size_t i = 0; i < n; ++i) op[i] |= src[i] & msk;
    }
    ctx.CtMulInto(out, op.data(), out, scratch);
  }
}

PaillierCiphertext RandomizerPool::Rerandomize(const PaillierCiphertext& c,
                                               SecureRandom* rng) const {
  const MontgomeryCtx* ctx = pub_->n2_ctx();
  if (ctx == nullptr) {
    // No-context fallback (uninitialized key): legacy division path.
    size_t i = rng->UniformU64(pool_.size());
    size_t j = rng->UniformU64(pool_.size());
    BigInt masked = c.value.ModMul(pool_[i], pub_->n_squared());
    return PaillierCiphertext{masked.ModMul(pool_[j], pub_->n_squared())};
  }
  const size_t n = ctx->limbs();
  MontgomeryCtx::Scratch& scratch = TlsScratch(*ctx);
  std::vector<uint64_t> acc(n);  // becomes the returned BigInt's storage
  if (mode_ == Mode::kPairwise) {
    // Montgomery-form masks: each multiply into the plain-domain
    // ciphertext is a single fused CIOS pass, division- and
    // conversion-free.
    size_t i = rng->UniformU64(pool_mont_.size());
    size_t j = rng->UniformU64(pool_mont_.size());
    for (size_t k = 0; k < n; ++k) acc[k] = c.value.limb(k);
    ctx->MulInto(acc.data(), pool_mont_[i].data(), acc.data(), &scratch);
    ctx->MulInto(acc.data(), pool_mont_[j].data(), acc.data(), &scratch);
    return PaillierCiphertext{BigInt::FromLimbsLittleEndian(std::move(acc))};
  }
  std::vector<uint64_t>& mask = TlsMaskBuf(n);
  FreshMaskMont(rng, mask.data(), &scratch);
  for (size_t k = 0; k < n; ++k) acc[k] = c.value.limb(k);
  ctx->MulInto(acc.data(), mask.data(), acc.data(), &scratch);
  return PaillierCiphertext{BigInt::FromLimbsLittleEndian(std::move(acc))};
}

void RandomizerPool::RerandomizeMontInto(
    uint64_t* c_mont, SecureRandom* rng,
    MontgomeryCtx::Scratch* scratch) const {
  const MontgomeryCtx* ctx = pub_->n2_ctx();
  assert(ctx != nullptr);
  const size_t n = ctx->limbs();
  if (mode_ == Mode::kPairwise) {
    // Same index draws as Rerandomize; MontMul of two Montgomery
    // operands stays Montgomery, so the column never leaves the domain.
    size_t i = rng->UniformU64(pool_mont_.size());
    size_t j = rng->UniformU64(pool_mont_.size());
    ctx->MulInto(c_mont, pool_mont_[i].data(), c_mont, scratch);
    ctx->MulInto(c_mont, pool_mont_[j].data(), c_mont, scratch);
    return;
  }
  std::vector<uint64_t>& mask = TlsMaskBuf(n);
  FreshMaskMont(rng, mask.data(), scratch);
  ctx->MulInto(c_mont, mask.data(), c_mont, scratch);
}

void RandomizerPool::RerandomizeMontManyInto(
    size_t k, uint64_t* const* c_mont, SecureRandom* rng,
    MontgomeryCtx::Scratch* scratch) const {
  const MontgomeryCtx* ctx = pub_->n2_ctx();
  assert(ctx != nullptr);
  const size_t n = ctx->limbs();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  if (mode_ == Mode::kPairwise) {
    const uint64_t* mi[kLanes];
    const uint64_t* mj[kLanes];
    for (size_t done = 0; done < k; done += kLanes) {
      const size_t kb = std::min(kLanes, k - done);
      // The scalar call draws (i, j) per ciphertext; drawing lane by
      // lane keeps the rng sequence — and thus the column — bitwise
      // identical to k scalar calls.
      for (size_t l = 0; l < kb; ++l) {
        mi[l] = pool_mont_[rng->UniformU64(pool_mont_.size())].data();
        mj[l] = pool_mont_[rng->UniformU64(pool_mont_.size())].data();
      }
      ctx->MulManyInto(kb, c_mont + done, mi, c_mont + done, scratch);
      ctx->MulManyInto(kb, c_mont + done, mj, c_mont + done, scratch);
    }
    return;
  }
  // kFixedBase: lane-distinct comb masks (sequential draws), one batch
  // multiply per lane block.
  std::vector<uint64_t>& masks = TlsMaskBuf(kLanes * n);
  const uint64_t* mp[kLanes];
  for (size_t done = 0; done < k; done += kLanes) {
    const size_t kb = std::min(kLanes, k - done);
    for (size_t l = 0; l < kb; ++l) {
      FreshMaskMont(rng, masks.data() + l * n, scratch);
      mp[l] = masks.data() + l * n;
    }
    ctx->MulManyInto(kb, c_mont + done, mp, c_mont + done, scratch);
  }
}

PaillierCiphertext RandomizerPool::EncryptFast(const BigInt& m,
                                               SecureRandom* rng) const {
  return Rerandomize(pub_->TrivialEncrypt(m), rng);
}

PaillierCiphertext RandomizerPool::EncryptFastU64(uint64_t m,
                                                  SecureRandom* rng) const {
  return EncryptFast(BigInt(m), rng);
}

void RandomizerPool::EncryptFastManyU64(size_t k, const uint64_t* ms,
                                        SecureRandom* rng,
                                        PaillierCiphertext* out) const {
  const MontgomeryCtx* ctx = pub_->n2_ctx();
  if (ctx == nullptr) {
    for (size_t i = 0; i < k; ++i) out[i] = EncryptFastU64(ms[i], rng);
    return;
  }
  // EncryptFast multiplies the plain-domain 1 + mN by Montgomery-form
  // masks, which leaves the plain-domain product; RerandomizeMontManyInto
  // applies the same masks with the same lane-by-lane draws, k lanes wide.
  const size_t n = ctx->limbs();
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  MontgomeryCtx::Scratch& scratch = TlsScratch(*ctx);
  std::vector<uint64_t> rows[kLanes];
  uint64_t* lanes[kLanes];
  for (size_t done = 0; done < k; done += kLanes) {
    const size_t kb = std::min(kLanes, k - done);
    for (size_t l = 0; l < kb; ++l) {
      const BigInt g = pub_->TrivialEncrypt(BigInt(ms[done + l])).value;
      rows[l].resize(n);
      for (size_t i = 0; i < n; ++i) rows[l][i] = g.limb(i);
      lanes[l] = rows[l].data();
    }
    RerandomizeMontManyInto(kb, lanes, rng, &scratch);
    for (size_t l = 0; l < kb; ++l) {
      out[done + l].value = BigInt::FromLimbsLittleEndian(std::move(rows[l]));
    }
  }
}

}  // namespace crypto
}  // namespace shuffledp
