#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <string>

#include "mont_backends.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace crypto {
namespace {

// Shared small key pair (256-bit N) so the suite stays fast; one test
// exercises a production-size 1024-bit key.
class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new SecureRandom(uint64_t{20200802});
    auto kp = PaillierGenerateKeyPair(256, rng_);
    ASSERT_TRUE(kp.ok());
    kp_ = new PaillierKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete kp_;
    delete rng_;
    kp_ = nullptr;
    rng_ = nullptr;
  }

  static SecureRandom* rng_;
  static PaillierKeyPair* kp_;
};

SecureRandom* PaillierTest::rng_ = nullptr;
PaillierKeyPair* PaillierTest::kp_ = nullptr;

/// A 256-bit key pair whose factorization the test keeps for
/// DecryptDirect (the private key does not expose its primes).
struct FactoredKey {
  BigInt p, q;
  PaillierKeyPair kp;
};

const FactoredKey& TestFactoredKey() {
  static const FactoredKey* key = [] {
    SecureRandom rng(uint64_t{20200803});
    auto* k = new FactoredKey;
    k->p = BigInt::GeneratePrime(128, &rng);
    do {
      k->q = BigInt::GeneratePrime(128, &rng);
    } while (k->q == k->p);
    auto priv = PaillierPrivateKey::FromPrimes(k->p, k->q);
    EXPECT_TRUE(priv.ok());
    k->kp.pub = priv->public_key();
    k->kp.priv = std::move(priv).value();
    return k;
  }();
  return *key;
}

/// Reference decryption by the direct lambda exponentiation (no CRT,
/// variable-time): m = L(c^λ mod N²) · μ mod N with λ = lcm(p−1, q−1),
/// μ = L(g^λ mod N²)⁻¹ mod N and L(x) = (x − 1)/N. Slow; it cross-checks
/// the CRT decryption paths.
BigInt DecryptDirect(const FactoredKey& key, const PaillierCiphertext& c) {
  const BigInt& n = key.kp.pub.n();
  const BigInt& n2 = key.kp.pub.n_squared();
  auto l = [&n](const BigInt& x) {
    BigInt quotient;
    EXPECT_TRUE(x.Sub(BigInt(1)).DivMod(n, &quotient, nullptr).ok());
    return quotient;
  };
  const BigInt lambda =
      BigInt::Lcm(key.p.Sub(BigInt(1)), key.q.Sub(BigInt(1)));
  auto mu = l(n.Add(BigInt(1)).ModExp(lambda, n2)).Mod(n).ModInverse(n);
  EXPECT_TRUE(mu.ok());
  return l(c.value.ModExp(lambda, n2)).ModMul(*mu, n);
}

// Checks a kPairwise pool built from `seed` against the serial reference
// the batched build replaced: one Encrypt(0) per entry, converted with
// ToMontInto. Every entry and the caller's next rng draw must be equal.
void ExpectPoolBuildMatchesReference(const PaillierPublicKey& pub,
                                     size_t size, uint64_t seed,
                                     ThreadPool* fanout) {
  const MontgomeryCtx& ctx = *pub.n2_ctx();
  MontgomeryCtx::Scratch scratch(ctx);
  SecureRandom ref_rng(seed);
  std::vector<std::vector<uint64_t>> expect(
      size, std::vector<uint64_t>(ctx.limbs()));
  for (std::vector<uint64_t>& entry : expect) {
    auto enc_zero = pub.Encrypt(BigInt(), &ref_rng);
    ASSERT_TRUE(enc_zero.ok());
    ctx.ToMontInto(enc_zero->value, entry.data(), &scratch);
  }

  SecureRandom rng(seed);
  RandomizerPool pool(pub, size, &rng, RandomizerPool::Mode::kPairwise,
                      fanout);
  ASSERT_EQ(pool.pairwise_masks_mont().size(), size);
  for (size_t i = 0; i < size; ++i) {
    EXPECT_EQ(pool.pairwise_masks_mont()[i], expect[i]) << "entry " << i;
  }
  EXPECT_EQ(rng.NextU64(), ref_rng.NextU64());
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 0xFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL}) {
    auto c = kp_->pub.EncryptU64(m, rng_);
    ASSERT_TRUE(c.ok());
    auto back = kp_->priv.Decrypt(*c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ToU64Saturating(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  auto c1 = kp_->pub.EncryptU64(5, rng_);
  auto c2 = kp_->pub.EncryptU64(5, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->value, c2->value);
}

TEST_F(PaillierTest, HomomorphicAddition) {
  auto c1 = kp_->pub.EncryptU64(111, rng_);
  auto c2 = kp_->pub.EncryptU64(222, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto sum = kp_->pub.Add(*c1, *c2);
  auto back = kp_->priv.Decrypt(sum);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 333u);
}

TEST_F(PaillierTest, HomomorphicAddPlain) {
  auto c = kp_->pub.EncryptU64(100, rng_);
  ASSERT_TRUE(c.ok());
  auto shifted = kp_->pub.AddPlain(*c, BigInt(23));
  auto back = kp_->priv.Decrypt(shifted);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 123u);
}

TEST_F(PaillierTest, HomomorphicScalarMult) {
  auto c = kp_->pub.EncryptU64(7, rng_);
  ASSERT_TRUE(c.ok());
  auto scaled = kp_->pub.ScalarMult(*c, BigInt(9));
  auto back = kp_->priv.Decrypt(scaled);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 63u);
}

TEST_F(PaillierTest, AdditionWrapsModN) {
  // Enc(N-1) + Enc(2) = Enc(1).
  BigInt n_minus_1 = kp_->pub.n().Sub(BigInt(1));
  auto c1 = kp_->pub.Encrypt(n_minus_1, rng_);
  auto c2 = kp_->pub.EncryptU64(2, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto back = kp_->priv.Decrypt(kp_->pub.Add(*c1, *c2));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 1u);
}

TEST_F(PaillierTest, PlaintextTooLargeRejected) {
  EXPECT_FALSE(kp_->pub.Encrypt(kp_->pub.n(), rng_).ok());
}

TEST_F(PaillierTest, DecryptMod2EllRecoversShareSum) {
  // Simulates the PEOS share-sum recovery: k ell-bit shares summed
  // homomorphically, decrypted, reduced mod 2^ell.
  const unsigned ell = 32;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  uint64_t shares[] = {0xFFFFFFF0ULL, 0x12345678ULL, 0xDEADBEEFULL};
  uint64_t expected = 0;
  PaillierCiphertext acc = kp_->pub.TrivialEncrypt(BigInt(0));
  for (uint64_t s : shares) {
    expected = (expected + s) & mask;
    auto c = kp_->pub.EncryptU64(s, rng_);
    ASSERT_TRUE(c.ok());
    acc = kp_->pub.Add(acc, *c);
  }
  auto back = kp_->priv.DecryptMod2Ell(acc, ell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, expected);
}

TEST_F(PaillierTest, DecryptMod2Ell64Bit) {
  const uint64_t a = 0xFFFFFFFFFFFFFFF0ULL, b = 0x20ULL;
  auto ca = kp_->pub.EncryptU64(a, rng_);
  auto cb = kp_->pub.EncryptU64(b, rng_);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto back = kp_->priv.DecryptMod2Ell(kp_->pub.Add(*ca, *cb), 64);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, a + b);  // wraps mod 2^64 exactly
}

TEST_F(PaillierTest, SerializeParseRoundTrip) {
  auto c = kp_->pub.EncryptU64(777, rng_);
  ASSERT_TRUE(c.ok());
  Bytes wire = kp_->pub.SerializeCiphertext(*c);
  EXPECT_EQ(wire.size(), kp_->pub.CiphertextBytes());
  auto parsed = kp_->pub.ParseCiphertext(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value, c->value);
}

TEST_F(PaillierTest, ParseRejectsWrongLength) {
  EXPECT_FALSE(kp_->pub.ParseCiphertext(Bytes(3, 0)).ok());
}

TEST_F(PaillierTest, TrivialEncryptDecrypts) {
  auto back = kp_->priv.Decrypt(kp_->pub.TrivialEncrypt(BigInt(99)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 99u);
}

TEST_F(PaillierTest, RandomizerPoolPreservesPlaintext) {
  RandomizerPool pool(kp_->pub, 8, rng_);
  auto c = kp_->pub.EncryptU64(31337, rng_);
  ASSERT_TRUE(c.ok());
  auto rr = pool.Rerandomize(*c, rng_);
  EXPECT_NE(rr.value, c->value);  // ciphertext changes
  auto back = kp_->priv.Decrypt(rr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 31337u);  // plaintext preserved
}

// The batched, fanned-out pool build over full and ragged 8-lane blocks,
// every worker count and every Montgomery backend the host has.
TEST_F(PaillierTest, RandomizerPoolBuildMatchesSerialEncrypt) {
  ThreadPool one(1), four(4);
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend scoped(backend);
    uint64_t seed = 500;
    for (size_t size : {2u, 7u, 8u, 9u, 64u, 65u}) {
      for (ThreadPool* fanout :
           {static_cast<ThreadPool*>(nullptr), &one, &four}) {
        SCOPED_TRACE(std::string(MontBackendName(backend)) + " size " +
                     std::to_string(size) + " workers " +
                     std::to_string(fanout ? fanout->num_threads() : 0));
        ExpectPoolBuildMatchesReference(kp_->pub, size, seed, fanout);
      }
      ++seed;
    }
  }
}

TEST_F(PaillierTest, RandomizerPoolFastEncrypt) {
  RandomizerPool pool(kp_->pub, 8, rng_);
  auto c = pool.EncryptFastU64(2468, rng_);
  auto back = kp_->priv.Decrypt(c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 2468u);
}

TEST_F(PaillierTest, HomomorphismRandomizedProperty) {
  // Dec(Enc(a) (+) Enc(b)) == a + b mod N for random and extreme a, b.
  const BigInt n = kp_->pub.n();
  std::vector<BigInt> values = {BigInt(), BigInt(1), n.Sub(BigInt(1))};
  for (int i = 0; i < 5; ++i) {
    values.push_back(BigInt::RandomBelow(n, rng_));
  }
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      auto ca = kp_->pub.Encrypt(a, rng_);
      auto cb = kp_->pub.Encrypt(b, rng_);
      ASSERT_TRUE(ca.ok() && cb.ok());
      auto sum = kp_->priv.Decrypt(kp_->pub.Add(*ca, *cb));
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(*sum, a.Add(b).Mod(n));
    }
  }
}

TEST_F(PaillierTest, ExtremePlaintextsRoundTrip) {
  // m = 0 and m = N - 1 exactly.
  for (const BigInt& m : {BigInt(), kp_->pub.n().Sub(BigInt(1))}) {
    auto c = kp_->pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto back = kp_->priv.Decrypt(*c);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, m);
  }
}

TEST_F(PaillierTest, CrtMatchesDirectDecryption) {
  const FactoredKey& key = TestFactoredKey();
  for (int i = 0; i < 4; ++i) {
    BigInt m = BigInt::RandomBelow(key.kp.pub.n(), rng_);
    auto c = key.kp.pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto crt = key.kp.priv.Decrypt(*c);
    ASSERT_TRUE(crt.ok());
    EXPECT_EQ(*crt, DecryptDirect(key, *c));
    EXPECT_EQ(*crt, m);
  }
  // Also after homomorphic combination.
  auto c1 = key.kp.pub.EncryptU64(12345, rng_);
  auto c2 = key.kp.pub.EncryptU64(67890, rng_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto combined =
      key.kp.pub.ScalarMult(key.kp.pub.Add(*c1, *c2), BigInt(3));
  auto crt = key.kp.priv.Decrypt(combined);
  ASSERT_TRUE(crt.ok());
  EXPECT_EQ(*crt, DecryptDirect(key, combined));
  EXPECT_EQ(crt->ToU64Saturating(), (12345u + 67890u) * 3u);
}

TEST_F(PaillierTest, FixedBaseRandomizerAgreesWithFullWidth) {
  RandomizerPool pool(kp_->pub, 2, rng_, RandomizerPool::Mode::kFixedBase);
  ASSERT_EQ(pool.mode(), RandomizerPool::Mode::kFixedBase);
  for (uint64_t m : {0ULL, 1ULL, 424242ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    // Fixed-base fast encryption and full-width encryption must be
    // plaintext-equivalent.
    auto fast = pool.EncryptFastU64(m, rng_);
    auto exact = kp_->pub.EncryptU64(m, rng_);
    ASSERT_TRUE(exact.ok());
    auto back_fast = kp_->priv.Decrypt(fast);
    auto back_exact = kp_->priv.Decrypt(*exact);
    ASSERT_TRUE(back_fast.ok() && back_exact.ok());
    EXPECT_EQ(*back_fast, *back_exact);
    EXPECT_NE(fast.value, exact->value);  // still randomized
  }
  // Fresh masks per call: fast encryptions of one plaintext differ.
  auto f1 = pool.EncryptFastU64(7, rng_);
  auto f2 = pool.EncryptFastU64(7, rng_);
  EXPECT_NE(f1.value, f2.value);
  // Rerandomize preserves the plaintext and changes the ciphertext.
  auto c = kp_->pub.EncryptU64(31337, rng_);
  ASSERT_TRUE(c.ok());
  auto rr = pool.Rerandomize(*c, rng_);
  EXPECT_NE(rr.value, c->value);
  auto back = kp_->priv.Decrypt(rr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 31337u);
}

TEST_F(PaillierTest, PackedDecryptionMatchesPerRow) {
  SecureRandom data_rng(uint64_t{99});
  for (unsigned ell : {8u, 13u, 36u}) {
    const uint64_t mask = (uint64_t{1} << ell) - 1;
    for (unsigned slack : {0u, 3u}) {
      const unsigned slot_bits = ell + slack + 1;
      const size_t cap = kp_->priv.PackedSlotCapacity(slot_bits);
      ASSERT_GE(cap, 1u);
      for (size_t count : {size_t{1}, std::min<size_t>(3, cap), cap}) {
        std::vector<PaillierCiphertext> cs(count);
        std::vector<uint64_t> expect(count);
        for (size_t i = 0; i < count; ++i) {
          uint64_t v = data_rng.NextU64() & mask;
          expect[i] = v;
          auto c = kp_->pub.EncryptU64(v, rng_);
          ASSERT_TRUE(c.ok());
          cs[i] = std::move(c).value();
        }
        std::vector<uint64_t> got(count, ~uint64_t{0});
        ASSERT_TRUE(kp_->priv
                        .DecryptPackedMod2Ell(cs.data(), count, slot_bits,
                                              ell, got.data())
                        .ok());
        for (size_t i = 0; i < count; ++i) {
          auto per_row = kp_->priv.DecryptMod2Ell(cs[i], ell);
          ASSERT_TRUE(per_row.ok());
          EXPECT_EQ(got[i], *per_row) << "slot " << i;
          EXPECT_EQ(got[i], expect[i]) << "slot " << i;
        }
      }
    }
  }
}

TEST_F(PaillierTest, PackedDecryptionHandlesEosStyleAdjustments) {
  // Mimic the PEOS pipeline: the encrypted share accumulates a few more
  // ell-bit plaintext additions (one per EOS round) plus rerandomization;
  // the slot headroom must absorb the integer growth.
  const unsigned ell = 16;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const unsigned rounds = 3;
  unsigned extra = 0;
  while ((1u << extra) < rounds + 1) ++extra;
  const unsigned slot_bits = ell + extra + 1;
  RandomizerPool pool(kp_->pub, 4, rng_);
  SecureRandom data_rng(uint64_t{1234});

  const size_t count =
      std::min<size_t>(kp_->priv.PackedSlotCapacity(slot_bits), 7);
  std::vector<PaillierCiphertext> cs(count);
  std::vector<uint64_t> expect(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t sum = data_rng.NextU64() & mask;
    cs[i] = pool.EncryptFastU64(sum, rng_);
    for (unsigned r = 0; r < rounds; ++r) {
      uint64_t adj = data_rng.NextU64() & mask;
      sum = (sum + adj) & mask;
      cs[i] = pool.Rerandomize(kp_->pub.AddPlain(cs[i], BigInt(adj)), rng_);
    }
    expect[i] = sum;
  }
  std::vector<uint64_t> got(count);
  ASSERT_TRUE(kp_->priv
                  .DecryptPackedMod2Ell(cs.data(), count, slot_bits, ell,
                                        got.data())
                  .ok());
  EXPECT_EQ(got, expect);
}

TEST_F(PaillierTest, PackedDecryptionRejectsBadLayouts) {
  auto c = kp_->pub.EncryptU64(1, rng_);
  ASSERT_TRUE(c.ok());
  std::vector<PaillierCiphertext> cs(
      kp_->priv.PackedSlotCapacity(16) + 1, *c);
  std::vector<uint64_t> out(cs.size());
  // Over capacity.
  EXPECT_FALSE(kp_->priv
                   .DecryptPackedMod2Ell(cs.data(), cs.size(), 16, 16,
                                         out.data())
                   .ok());
  // slot_bits < ell and ell out of range.
  EXPECT_FALSE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 1, 8, 16, out.data()).ok());
  EXPECT_FALSE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 1, 70, 65, out.data()).ok());
  // count == 0 is a no-op.
  EXPECT_TRUE(
      kp_->priv.DecryptPackedMod2Ell(cs.data(), 0, 16, 16, out.data()).ok());
}

// The Montgomery-resident rerandomize chain (the EOS ciphertext column)
// against the per-round plain-domain path: identically seeded rngs must
// yield bitwise-identical ciphertexts after every round of
// AddPlain + Rerandomize, for both pool modes — the domain residency is
// a representation change only, never a value change.
TEST_F(PaillierTest, MontResidentRerandomizeChainMatchesPerRoundPath) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  for (RandomizerPool::Mode mode :
       {RandomizerPool::Mode::kPairwise, RandomizerPool::Mode::kFixedBase}) {
    SecureRandom pool_rng(uint64_t{777});
    RandomizerPool pool(kp_->pub, 8, &pool_rng, mode);

    auto start = kp_->pub.EncryptU64(123456789, rng_);
    ASSERT_TRUE(start.ok());

    // Plain-domain reference: the exact sequence the pre-resident EOS
    // loop ran once per C(r, t) round.
    const int kRounds = 12;
    SecureRandom plain_rng(uint64_t{4242});
    PaillierCiphertext plain = *start;
    uint64_t sum = 123456789;
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t adjust = 0x9E37 + static_cast<uint64_t>(round);
      sum += adjust;
      plain = kp_->pub.AddPlain(plain, BigInt(adjust));
      plain = pool.Rerandomize(plain, &plain_rng);
    }

    // Montgomery-resident chain: enter once, stay, leave once.
    SecureRandom mont_rng(uint64_t{4242});
    MontgomeryCtx::Scratch scratch(*ctx);
    std::vector<uint64_t> resident(ctx->limbs());
    ctx->ToMontInto(start->value, resident.data(), &scratch);
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t adjust = 0x9E37 + static_cast<uint64_t>(round);
      kp_->pub.AddPlainMontInto(resident.data(), BigInt(adjust), &scratch);
      pool.RerandomizeMontInto(resident.data(), &mont_rng, &scratch);
    }
    PaillierCiphertext mont =
        PaillierCiphertext{ctx->FromMontLimbs(resident.data(), &scratch)};

    EXPECT_EQ(mont.value, plain.value)
        << "mode=" << static_cast<int>(mode);  // bitwise, not just Dec-equal
    auto decrypted = kp_->priv.DecryptMod2Ell(mont, 64);
    ASSERT_TRUE(decrypted.ok());
    EXPECT_EQ(*decrypted, sum);
  }
}

// EOS-adjusted ciphertexts at full slot headroom: each row starts as a
// pooled encryption of an ell-bit share and takes `rounds` more ell-bit
// AddPlain + Rerandomize steps (the PEOS server's input). Every third row
// carries the largest integer the EOS invariant allows, (rounds + 1) *
// (2^ell - 1), and every seventh the largest the slot holds,
// 2^slot_bits - 1.
std::vector<PaillierCiphertext> EosAdjustedColumn(const PaillierPublicKey& pub,
                                                  size_t count, unsigned ell,
                                                  unsigned rounds,
                                                  unsigned slot_bits,
                                                  SecureRandom* rng) {
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  RandomizerPool pool(pub, 8, rng);
  std::vector<PaillierCiphertext> cs(count);
  for (size_t i = 0; i < count; ++i) {
    const bool top = i % 3 == 0;
    uint64_t sum = top ? mask : rng->NextU64() & mask;
    cs[i] = pool.EncryptFastU64(sum, rng);
    for (unsigned r = 0; r < rounds; ++r) {
      const uint64_t adj = top ? mask : rng->NextU64() & mask;
      sum += adj;
      cs[i] = pool.Rerandomize(pub.AddPlain(cs[i], BigInt(adj)), rng);
    }
    if (i % 7 == 0) {
      const uint64_t fill = ((uint64_t{1} << slot_bits) - 1) - sum;
      cs[i] = pool.Rerandomize(pub.AddPlain(cs[i], BigInt(fill)), rng);
    }
  }
  return cs;
}

// Checks DecryptPackedMod2EllBatch on cs[0, count) for every count in
// `counts`, on every Montgomery backend, against `want` (per-row
// DecryptMod2Ell), and that the word past out[count - 1] is never written.
void ExpectPackedBatchMatchesPerRow(const PaillierPrivateKey& priv,
                                    const std::vector<PaillierCiphertext>& cs,
                                    const std::vector<uint64_t>& want,
                                    unsigned slot_bits, unsigned ell,
                                    const std::vector<size_t>& counts) {
  constexpr uint64_t kCanary = 0xC0FFEE0DDBA11ULL;
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend scoped(backend);
    for (size_t count : counts) {
      SCOPED_TRACE(std::string(MontBackendName(backend)) + " count " +
                   std::to_string(count));
      ASSERT_LE(count, cs.size());
      std::vector<uint64_t> got(count + 1, ~uint64_t{0});
      got[count] = kCanary;
      ASSERT_TRUE(priv.DecryptPackedMod2EllBatch(cs.data(), count, slot_bits,
                                                 ell, got.data())
                      .ok());
      EXPECT_EQ(got[count], kCanary);
      got.pop_back();
      EXPECT_EQ(got, std::vector<uint64_t>(want.begin(),
                                           want.begin() + count));
    }
  }
}

// Multi-group batched packed decryption against per-row DecryptMod2Ell:
// one group, sub-block and ragged group counts, full lane blocks, and the
// PEOS server's prepare-stage slicing of a 4096-row batch at its
// production layout (1024-bit N, ell 35, slot 38), on every available
// Montgomery backend.
TEST_F(PaillierTest, DecryptPackedBatchBitwiseEqualsScalarLoop) {
  {
    const unsigned ell = 16, rounds = 3, slot_bits = ell + 3;
    const size_t cap = kp_->priv.PackedSlotCapacity(slot_bits);
    ASSERT_GE(cap, 2u);
    const std::vector<size_t> counts = {
        1, 5, 8, 9, cap - 1, cap, cap + 1, 8 * cap - 1, 8 * cap, 8 * cap + 1,
        9 * cap + cap / 2};
    SecureRandom data_rng(uint64_t{5150});
    const std::vector<PaillierCiphertext> cs = EosAdjustedColumn(
        kp_->pub, 9 * cap + cap / 2, ell, rounds, slot_bits, &data_rng);
    std::vector<uint64_t> want(cs.size());
    for (size_t i = 0; i < cs.size(); ++i) {
      auto m = kp_->priv.DecryptMod2Ell(cs[i], ell);
      ASSERT_TRUE(m.ok());
      want[i] = *m;
    }
    ExpectPackedBatchMatchesPerRow(kp_->priv, cs, want, slot_bits, ell,
                                   counts);
  }
  {
    // The perfbench peos-eos shape: 4096 rows sliced into chunks of
    // cap * kMaxBatchLanes rows, the last one ragged (144 = 5.5 groups).
    SecureRandom key_rng(uint64_t{20200804});
    auto kp = PaillierGenerateKeyPair(1024, &key_rng);
    ASSERT_TRUE(kp.ok());
    const unsigned ell = 35, rounds = 3, slot_bits = 38;
    const size_t cap = kp->priv.PackedSlotCapacity(slot_bits);
    ASSERT_EQ(cap, 26u);
    const size_t rows = 4096, chunk = cap * MontgomeryCtx::kMaxBatchLanes;
    const std::vector<PaillierCiphertext> cs =
        EosAdjustedColumn(kp->pub, rows, ell, rounds, slot_bits, &key_rng);
    // Reference: per-row DecryptMod2Ell on the ragged last chunk, where
    // the layout departs from whole capacity-sized groups; the full
    // chunks keep that layout, so one-group DecryptPackedMod2Ell calls
    // (pinned against per-row decryption above) cover them at a fraction
    // of 4096 full decryptions.
    const size_t last = rows - rows % chunk;
    std::vector<uint64_t> want(rows);
    for (size_t at = 0; at < last; at += cap) {
      ASSERT_TRUE(kp->priv
                      .DecryptPackedMod2Ell(cs.data() + at, cap, slot_bits,
                                            ell, want.data() + at)
                      .ok());
    }
    for (size_t i = last; i < rows; ++i) {
      auto m = kp->priv.DecryptMod2Ell(cs[i], ell);
      ASSERT_TRUE(m.ok());
      want[i] = *m;
    }
    for (MontBackend backend : AvailableMontBackends()) {
      ScopedMontBackend scoped(backend);
      std::vector<uint64_t> got(rows + 1, ~uint64_t{0});
      got[rows] = 0xC0FFEE0DDBA11ULL;
      for (size_t lo = 0; lo < rows; lo += chunk) {
        const size_t count = std::min(chunk, rows - lo);
        ASSERT_TRUE(kp->priv
                        .DecryptPackedMod2EllBatch(cs.data() + lo, count,
                                                   slot_bits, ell,
                                                   got.data() + lo)
                        .ok());
      }
      EXPECT_EQ(got[rows], 0xC0FFEE0DDBA11ULL) << MontBackendName(backend);
      got.pop_back();
      EXPECT_EQ(got, want) << MontBackendName(backend);
    }
  }
}

// Failure containment of the PEOS server decrypt: one row whose plaintext
// breaks the slot precondition (>= 2^slot_bits; here close to N, so the
// packed sum wraps mod N) may corrupt its own balanced pack group, but
// every row outside that group must still equal per-row DecryptMod2Ell —
// the damage bound paillier.h states for DecryptPackedMod2EllBatch.
TEST_F(PaillierTest, PackedBatchOversizedPlaintextCorruptsOnlyItsGroup) {
  const unsigned ell = 16, rounds = 3, slot_bits = ell + 3;
  const size_t cap = kp_->priv.PackedSlotCapacity(slot_bits);
  ASSERT_GE(cap, 2u);
  const size_t count = 9 * cap + cap / 2;
  SecureRandom data_rng(uint64_t{6061});
  const std::vector<PaillierCiphertext> clean = EosAdjustedColumn(
      kp_->pub, count, ell, rounds, slot_bits, &data_rng);
  std::vector<uint64_t> want(count);
  for (size_t i = 0; i < count; ++i) {
    auto m = kp_->priv.DecryptMod2Ell(clean[i], ell);
    ASSERT_TRUE(m.ok());
    want[i] = *m;
  }
  auto oversized = kp_->pub.Encrypt(kp_->pub.n().Sub(BigInt(12345)), rng_);
  ASSERT_TRUE(oversized.ok());

  // The balanced layout DecryptPackedMod2EllBatch documents.
  constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;
  const size_t groups = ((count + cap - 1) / cap + kLanes - 1) / kLanes *
                        kLanes;
  const size_t base = count / groups, extra = count % groups;
  auto group_of = [&](size_t row) {
    size_t g = 0;
    while ((g + 1) * base + std::min(g + 1, extra) <= row) ++g;
    return g;
  };

  for (size_t poisoned : {size_t{0}, count / 2, count - 1}) {
    std::vector<PaillierCiphertext> cs = clean;
    cs[poisoned] = *oversized;
    const size_t bad_group = group_of(poisoned);
    for (MontBackend backend : AvailableMontBackends()) {
      ScopedMontBackend scoped(backend);
      SCOPED_TRACE(std::string(MontBackendName(backend)) + " poisoned row " +
                   std::to_string(poisoned));
      std::vector<uint64_t> got(count, ~uint64_t{0});
      ASSERT_TRUE(kp_->priv
                      .DecryptPackedMod2EllBatch(cs.data(), count, slot_bits,
                                                 ell, got.data())
                      .ok());
      size_t damaged = 0;
      for (size_t i = 0; i < count; ++i) {
        if (group_of(i) == bad_group) {
          if (i != poisoned && got[i] != want[i]) ++damaged;
          continue;
        }
        EXPECT_EQ(got[i], want[i]) << "row " << i;
      }
      // The poison is real: it does reach its group's other rows.
      EXPECT_GT(damaged, 0u);
    }
  }
}

// Lane-blocked rerandomization with an identically seeded rng must be
// bitwise identical to k sequential RerandomizeMontInto calls (the batch
// draws pool indices / masks in the same lane order), for both modes.
TEST_F(PaillierTest, RerandomizeMontManyBitwiseEqualsScalarSeeded) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  const size_t n = ctx->limbs();
  for (RandomizerPool::Mode mode :
       {RandomizerPool::Mode::kPairwise, RandomizerPool::Mode::kFixedBase}) {
    SecureRandom pool_rng(uint64_t{808});
    RandomizerPool pool(kp_->pub, 8, &pool_rng, mode);
    MontgomeryCtx::Scratch scratch(*ctx);
    for (size_t k : {1u, 5u, 8u, 13u}) {
      std::vector<std::vector<uint64_t>> batch(k), scalar(k);
      for (size_t l = 0; l < k; ++l) {
        auto c = kp_->pub.EncryptU64(1000 + l, rng_);
        ASSERT_TRUE(c.ok());
        batch[l].resize(n);
        ctx->ToMontInto(c->value, batch[l].data(), &scratch);
        scalar[l] = batch[l];
      }
      SecureRandom rng_batch(uint64_t{31 + k});
      SecureRandom rng_scalar(uint64_t{31 + k});
      std::vector<uint64_t*> rows(k);
      for (size_t l = 0; l < k; ++l) rows[l] = batch[l].data();
      pool.RerandomizeMontManyInto(k, rows.data(), &rng_batch, &scratch);
      for (size_t l = 0; l < k; ++l) {
        pool.RerandomizeMontInto(scalar[l].data(), &rng_scalar, &scratch);
      }
      for (size_t l = 0; l < k; ++l) {
        EXPECT_EQ(batch[l], scalar[l])
            << "mode=" << static_cast<int>(mode) << " k=" << k
            << " lane=" << l;
        // Still decrypts to the original plaintext.
        auto back = kp_->priv.Decrypt(
            PaillierCiphertext{ctx->FromMontLimbs(batch[l].data(), &scratch)});
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back->ToU64Saturating(), 1000 + l);
      }
    }
  }
}

// Lane-blocked fake-share encryption against k scalar EncryptFastU64
// calls from an identically seeded rng, for both pool modes: every
// ciphertext and the rng state afterwards must be bitwise equal.
TEST_F(PaillierTest, EncryptFastManyBitwiseEqualsScalarSeeded) {
  for (RandomizerPool::Mode mode :
       {RandomizerPool::Mode::kPairwise, RandomizerPool::Mode::kFixedBase}) {
    SecureRandom pool_rng(uint64_t{909});
    RandomizerPool pool(kp_->pub, 8, &pool_rng, mode);
    for (size_t k : {1u, 5u, 8u, 13u}) {
      std::vector<uint64_t> ms(k);
      for (size_t l = 0; l < k; ++l) ms[l] = (0x9E3779B97F4A7C15ULL * l) >> 29;
      SecureRandom rng_batch(uint64_t{71 + k});
      SecureRandom rng_scalar(uint64_t{71 + k});
      std::vector<PaillierCiphertext> batch(k);
      pool.EncryptFastManyU64(k, ms.data(), &rng_batch, batch.data());
      for (size_t l = 0; l < k; ++l) {
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                     " k=" + std::to_string(k) + " lane=" +
                     std::to_string(l));
        EXPECT_EQ(batch[l].value,
                  pool.EncryptFastU64(ms[l], &rng_scalar).value);
        auto back = kp_->priv.Decrypt(batch[l]);
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(*back, BigInt(ms[l]));
      }
      EXPECT_EQ(rng_batch.NextU64(), rng_scalar.NextU64());
    }
  }
}

// Batched plaintext addition against the scalar per-row path.
TEST_F(PaillierTest, AddPlainMontManyBitwiseEqualsScalar) {
  const MontgomeryCtx* ctx = kp_->pub.n2_ctx();
  ASSERT_NE(ctx, nullptr);
  const size_t n = ctx->limbs();
  MontgomeryCtx::Scratch scratch(*ctx);
  const size_t k = 11;  // 8-lane block + tail
  std::vector<std::vector<uint64_t>> batch(k), scalar(k);
  std::vector<BigInt> ms;
  ms.push_back(BigInt());  // zero adjustment lane
  for (size_t l = 1; l < k; ++l) {
    ms.push_back(BigInt::RandomBelow(kp_->pub.n(), rng_));
  }
  std::vector<uint64_t> expect(k);
  for (size_t l = 0; l < k; ++l) {
    auto c = kp_->pub.EncryptU64(l * 7, rng_);
    ASSERT_TRUE(c.ok());
    batch[l].resize(n);
    ctx->ToMontInto(c->value, batch[l].data(), &scratch);
    scalar[l] = batch[l];
  }
  std::vector<uint64_t*> rows(k);
  for (size_t l = 0; l < k; ++l) rows[l] = batch[l].data();
  kp_->pub.AddPlainMontManyInto(k, rows.data(), ms.data(), &scratch);
  for (size_t l = 0; l < k; ++l) {
    kp_->pub.AddPlainMontInto(scalar[l].data(), ms[l], &scratch);
    EXPECT_EQ(batch[l], scalar[l]) << "lane=" << l;
    auto back = kp_->priv.Decrypt(
        PaillierCiphertext{ctx->FromMontLimbs(batch[l].data(), &scratch)});
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, BigInt(l * 7).Add(ms[l]).Mod(kp_->pub.n()));
  }
}

// The constant-time decryption exponentiations compute the same values
// as the variable-time reference path (DecryptDirect) end to end.
TEST_F(PaillierTest, CtDecryptionAgreesWithDirectReference) {
  const FactoredKey& key = TestFactoredKey();
  for (int i = 0; i < 6; ++i) {
    BigInt m = BigInt::RandomBelow(key.kp.pub.n(), rng_);
    auto c = key.kp.pub.Encrypt(m, rng_);
    ASSERT_TRUE(c.ok());
    auto crt = key.kp.priv.Decrypt(*c);  // ct CRT ladders
    ASSERT_TRUE(crt.ok());
    EXPECT_EQ(*crt, DecryptDirect(key, *c));  // variable-time lambda path
    EXPECT_EQ(*crt, m);
  }
}

TEST(PaillierKeyGenTest, ProductionSizeKeyWorks) {
  SecureRandom rng(uint64_t{777001});
  auto kp = PaillierGenerateKeyPair(1024, &rng);
  ASSERT_TRUE(kp.ok());
  EXPECT_GE(kp->pub.n().BitLength(), 1023u);
  auto c = kp->pub.EncryptU64(123456789, &rng);
  ASSERT_TRUE(c.ok());
  auto back = kp->priv.Decrypt(*c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToU64Saturating(), 123456789u);

  // The batched pool build at the production limb width (32-limb N^2).
  ThreadPool four(4);
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend scoped(backend);
    SCOPED_TRACE(MontBackendName(backend));
    ExpectPoolBuildMatchesReference(kp->pub, 9, 901, &four);
  }
}

TEST(PaillierKeyGenTest, TooSmallModulusRejected) {
  SecureRandom rng(uint64_t{1});
  EXPECT_FALSE(PaillierGenerateKeyPair(32, &rng).ok());
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
