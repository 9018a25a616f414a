// Paillier additively homomorphic encryption.
//
// PEOS needs an AHE scheme whose decrypted sums, reduced mod 2^ell, equal
// the Z_{2^ell} secret-shared sums (the paper instantiates DGK with
// Pohlig-Hellman full decryption for a Z_{2^ell} plaintext space; see
// DESIGN.md §4 for why Paillier-with-final-mod-2^ell is an exact behavioural
// substitute: every share is an ell-bit value, the number of summands k
// satisfies k * 2^ell << N, so the decrypted integer is the true sum over Z
// and its residue mod 2^ell is the shared value).
//
// Implementation notes:
//  * g = N + 1, so Enc(m; r) = (1 + m*N) * r^N mod N^2 — one modexp.
//  * Decryption uses CRT over p^2 and q^2 (≈4x faster than the direct
//    lambda exponentiation, which tests/crypto/paillier_test.cpp keeps
//    as its cross-check reference).
//  * Both keys pin Montgomery contexts for their moduli (N^2 on the
//    public key, p^2/q^2 on the private key), so every Encrypt / Decrypt
//    / Add / ScalarMult runs division-free on precomputed contexts.
//  * DecryptPackedMod2Ell packs many small plaintexts into one Paillier
//    plaintext (Horner in the Montgomery domain: w squarings + 1 multiply
//    per ciphertext) and amortizes the two CRT modexps of a full
//    decryption over the whole group — the PEOS server-side fast path.
//  * A RandomizerPool amortizes the r^N modexp. It is on by default:
//    PeosConfig::use_randomizer_pool and
//    ShuffleDpCollector::Options::use_randomizer_pool both default to
//    true (kPairwise mode); full-strength PaillierPublicKey::Encrypt per
//    ciphertext runs only when a caller turns the pool off. Two modes
//    (documented tradeoffs):
//      - kPairwise (DESIGN.md §4 item 5): masks are products of two
//        pooled Enc(0) values — pool_size^2 distinct masks only, a
//        simulation shortcut with no formal rerandomization guarantee.
//      - kFixedBase: DJN-style randomizers h^r for h = r0^N and a short
//        uniform exponent r of 2*lambda bits evaluated from fixed-base
//        comb tables (the P256Precomputed pattern). Fresh masks per call;
//        security rests on the standard Damgård-Jurik-Nielsen short-
//        exponent indistinguishability assumption (h^r for r ~ U[0, 2^t)
//        vs a uniform N-th residue, t = 2*lambda), which is *stronger*
//        than the DCR assumption plain Paillier needs — hence kFixedBase
//        is opt-in: only a caller that constructs a RandomizerPool
//        directly gets it (RunPeos always builds kPairwise).

#ifndef SHUFFLEDP_CRYPTO_PAILLIER_H_
#define SHUFFLEDP_CRYPTO_PAILLIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/montgomery.h"
#include "crypto/secure_random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace crypto {

/// A Paillier ciphertext (value in [0, N^2)).
struct PaillierCiphertext {
  BigInt value;
};

/// Public key: modulus N (and cached N^2 + its Montgomery context).
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  explicit PaillierPublicKey(BigInt n);

  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }

  /// Montgomery context for N^2 (null until constructed with an odd N).
  const MontgomeryCtx* n2_ctx() const { return n2_ctx_.get(); }

  /// Ciphertext wire size in bytes (= 2 * |N| rounded up).
  size_t CiphertextBytes() const { return (n_squared_.BitLength() + 7) / 8; }

  /// Encrypts `m` (must be < N) with fresh randomness (one modexp).
  Result<PaillierCiphertext> Encrypt(const BigInt& m, SecureRandom* rng) const;

  /// Draws the randomizer r of one Encrypt: uniform in [1, N) with
  /// gcd(r, N) = 1, consuming exactly the rng draws Encrypt consumes.
  /// Pre: the key is initialized (N != 0).
  BigInt SampleRandomizer(SecureRandom* rng) const;

  /// Encrypts a 64-bit share value.
  Result<PaillierCiphertext> EncryptU64(uint64_t m, SecureRandom* rng) const;

  /// Homomorphic addition: Enc(a) (+) Enc(b) = Enc(a + b mod N).
  PaillierCiphertext Add(const PaillierCiphertext& a,
                         const PaillierCiphertext& b) const;

  /// Adds a plaintext constant: Enc(a) (+) m = Enc(a + m mod N). No modexp.
  PaillierCiphertext AddPlain(const PaillierCiphertext& c,
                              const BigInt& m) const;

  /// Homomorphic scalar multiplication: Enc(a) ^ k = Enc(a * k mod N).
  PaillierCiphertext ScalarMult(const PaillierCiphertext& c,
                                const BigInt& k) const;

  /// Deterministic trivial encryption of m with r = 1 (used as the identity
  /// element; NOT semantically secure on its own — always rerandomize).
  PaillierCiphertext TrivialEncrypt(const BigInt& m) const;

  // --- Montgomery-resident ciphertext column --------------------------
  //
  // The EOS rerandomize chain touches every ciphertext once per C(r, t)
  // round: homomorphically add an ell-bit mask adjustment, then re-mask.
  // Keeping the whole column in the Montgomery domain across all rounds
  // turns each round into pure fused CIOS passes — the only to/from-
  // Montgomery conversions are one per element at chain entry and exit,
  // which the caller runs on n2_ctx()'s batch kernels. Both methods below
  // require n2_ctx() != nullptr (any real key) and limb buffers of
  // exactly n2_ctx()->limbs() words.

  /// In-place Montgomery-domain AddPlain: c̃ <- c̃ ⊗ ToMont(g^m), i.e.
  /// Enc(a) (+) m without leaving the domain (two fused CIOS passes:
  /// one ToMont of the short g^m = 1 + mN operand, one multiply).
  void AddPlainMontInto(uint64_t* c_mont, const BigInt& m,
                        MontgomeryCtx::Scratch* scratch) const;

  /// Batch AddPlainMontInto over k resident ciphertexts: c_mont[l] gets
  /// ms[l] added, bitwise identical to k scalar calls but routed through
  /// the interleaved batch kernels (both CIOS passes run k lanes wide).
  void AddPlainMontManyInto(size_t k, uint64_t* const* c_mont,
                            const BigInt* ms,
                            MontgomeryCtx::Scratch* scratch) const;

  /// Serialization for the simulated network channels.
  Bytes SerializeCiphertext(const PaillierCiphertext& c) const;
  Result<PaillierCiphertext> ParseCiphertext(const Bytes& bytes) const;

 private:
  // (1 + m*N) mod N^2 for m already reduced mod N.
  BigInt GToM(const BigInt& m_reduced) const;

  BigInt n_;
  BigInt n_squared_;
  std::shared_ptr<const MontgomeryCtx> n2_ctx_;
};

/// Private key holding the factorization (CRT decryption).
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;

  /// Builds the private key from the prime factorization N = p * q.
  static Result<PaillierPrivateKey> FromPrimes(const BigInt& p,
                                               const BigInt& q);

  /// Decrypts to the full plaintext in [0, N).
  Result<BigInt> Decrypt(const PaillierCiphertext& c) const;

  /// Decrypts and reduces mod 2^ell (the Z_{2^ell} share recovery).
  Result<uint64_t> DecryptMod2Ell(const PaillierCiphertext& c,
                                  unsigned ell) const;

  /// How many ciphertexts DecryptPackedMod2Ell can fold into one
  /// decryption when each plaintext occupies `slot_bits` bits (>= 1).
  size_t PackedSlotCapacity(unsigned slot_bits) const;

  /// Batched share recovery: packs `count` ciphertexts (count <=
  /// PackedSlotCapacity(slot_bits)) into a single Paillier plaintext —
  /// slot i gets plaintext i at bit offset i*slot_bits via a Montgomery-
  /// domain Horner pass over both CRT residues (each ciphertext is
  /// converted into the Montgomery domain once, accumulated with
  /// MontMul/MontSqr, and converted back once per group) — then recovers
  /// every slot mod 2^ell (ell <= 64) from one CRT decryption.
  ///
  /// Pre: every plaintext is < 2^slot_bits. PEOS guarantees this by
  /// construction (shares are ell-bit values and each EOS round adds one
  /// more ell-bit mask adjustment, so slot_bits = ell +
  /// ceil(log2(rounds + 1)) + 1 bounds the integer sum). Tradeoff vs
  /// per-row decryption: a single adversarially oversized plaintext
  /// corrupts its whole pack group instead of only its own row — the
  /// PEOS server decrypts only through this path; callers that must
  /// isolate hostile plaintexts row-by-row should use DecryptMod2Ell.
  Status DecryptPackedMod2Ell(const PaillierCiphertext* cs, size_t count,
                              unsigned slot_bits, unsigned ell,
                              uint64_t* out) const;

  /// Multi-group DecryptPackedMod2Ell over balanced pack groups: `count`
  /// ciphertexts split into G groups, G the fewest that fit
  /// PackedSlotCapacity(slot_bits) rounded up to a multiple of
  /// MontgomeryCtx::kMaxBatchLanes, each of floor(count / G) or
  /// ceil(count / G) consecutive rows (the first count % G groups take
  /// the larger size). The group Horner chains and their CRT modexps run
  /// as full kMaxBatchLanes-wide blocks of the batch kernels; a shorter
  /// group is topped with the ciphertext 1 (a zero slot), and a group
  /// with no rows is padding that never writes `out`. The layout depends
  /// only on `count` and the capacity, never on the worker count or the
  /// backend. Each slot equals per-row DecryptMod2Ell; same
  /// preconditions as DecryptPackedMod2Ell, except count may exceed the
  /// capacity — and an adversarially oversized plaintext corrupts its
  /// whole balanced group, whose membership shifts with `count`.
  Status DecryptPackedMod2EllBatch(const PaillierCiphertext* cs, size_t count,
                                   unsigned slot_bits, unsigned ell,
                                   uint64_t* out) const;

  const PaillierPublicKey& public_key() const { return pub_; }

 private:
  // mp/mq half: L_m(c^(m-1) mod m^2) * h mod m. The m-1 exponent is
  // secret, so the modexp runs on the constant-time ladder.
  BigInt RecoverHalf(const MontgomeryCtx& ctx, const BigInt& c_reduced,
                     const BigInt& prime, const BigInt& prime_minus_1,
                     const BigInt& h) const;
  // Garner recombination of the CRT halves.
  BigInt CrtCombine(const BigInt& mp, const BigInt& mq) const;

  PaillierPublicKey pub_;
  BigInt p_, q_;            // primes
  BigInt p_squared_, q_squared_;
  BigInt p_minus_1_, q_minus_1_;
  BigInt hp_, hq_;          // CRT precomputation: L_p(g^{p-1} mod p^2)^-1 etc.
  BigInt q_sq_inv_mod_p_sq_;  // for CRT recombination
  std::shared_ptr<const MontgomeryCtx> p2_ctx_, q2_ctx_;
};

/// Key pair.
struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

/// Generates a key pair with an N of `modulus_bits` bits.
Result<PaillierKeyPair> PaillierGenerateKeyPair(size_t modulus_bits,
                                                SecureRandom* rng);

/// Pool of precomputed Enc(0) randomizer material (see the header note on
/// the kPairwise / kFixedBase tradeoff). This is a *documented simulation
/// shortcut* for benchmark throughput; production deployments should use
/// fresh full-width r^N per ciphertext (`PaillierPublicKey::Encrypt`).
class RandomizerPool {
 public:
  enum class Mode {
    kPairwise,   ///< product of two pooled Enc(0) masks (legacy default)
    kFixedBase,  ///< fresh DJN short-exponent fixed-base mask per call
  };

  /// kPairwise: precomputes `size` Enc(0) values (size >= 2). The
  /// randomizers are drawn serially from `rng` in Encrypt's order; their
  /// N-th powers are computed in kMaxBatchLanes blocks on `fanout` (inline
  /// when null). Entries and the rng state afterwards are bitwise those
  /// of `size` Encrypt(0) calls, whatever the worker count.
  /// kFixedBase: precomputes the comb tables for h = r0^N; `size` and
  /// `fanout` are ignored. `short_exp_bits` is the fixed-base exponent
  /// width t = 2λ (rounded up to a byte multiple; default 256 covers
  /// λ = 128).
  RandomizerPool(const PaillierPublicKey& pub, size_t size,
                 SecureRandom* rng, Mode mode = Mode::kPairwise,
                 ThreadPool* fanout = nullptr,
                 unsigned short_exp_bits = 256);

  Mode mode() const { return mode_; }

  /// The kPairwise masks in Montgomery form (empty in kFixedBase mode and
  /// for a key without a Montgomery context).
  const std::vector<std::vector<uint64_t>>& pairwise_masks_mont() const {
    return pool_mont_;
  }

  /// Returns c multiplied by a fresh Enc(0) mask (two pooled masks in
  /// kPairwise mode, one fixed-base mask in kFixedBase mode).
  PaillierCiphertext Rerandomize(const PaillierCiphertext& c,
                                 SecureRandom* rng) const;

  /// In-place Rerandomize of a Montgomery-form ciphertext (the resident
  /// EOS column): multiplies the same masks as Rerandomize — identical
  /// rng draws, identical plaintext effect — but stays in the domain
  /// (masks are pooled in Montgomery form, so each application is one
  /// fused CIOS pass and the product of two Montgomery operands is again
  /// a Montgomery operand). Pre: the key has a Montgomery context and
  /// `c_mont` holds n2_ctx()->limbs() words.
  void RerandomizeMontInto(uint64_t* c_mont, SecureRandom* rng,
                           MontgomeryCtx::Scratch* scratch) const;

  /// Batch RerandomizeMontInto over k resident ciphertexts. Draws the
  /// same rng sequence as k scalar calls (lane l's draws come l-th, in
  /// the scalar order) and produces bitwise-identical ciphertexts; the
  /// mask multiplies run k lanes wide through the batch kernels.
  void RerandomizeMontManyInto(size_t k, uint64_t* const* c_mont,
                               SecureRandom* rng,
                               MontgomeryCtx::Scratch* scratch) const;

  /// Encrypts without a full-width modexp: (1 + mN) * mask.
  PaillierCiphertext EncryptFast(const BigInt& m, SecureRandom* rng) const;
  PaillierCiphertext EncryptFastU64(uint64_t m, SecureRandom* rng) const;

  /// Lane-blocked EncryptFastU64 over k plaintexts: out[i] encrypts ms[i].
  /// Draws lane by lane in the scalar order, so the rng sequence and every
  /// ciphertext are bitwise those of k EncryptFastU64 calls; the mask
  /// multiplies run through the batch kernels in kMaxBatchLanes blocks.
  void EncryptFastManyU64(size_t k, const uint64_t* ms, SecureRandom* rng,
                          PaillierCiphertext* out) const;

 private:
  // Writes the Montgomery form of a fresh comb-evaluated h^r mask into
  // `out` (kFixedBase mode only).
  void FreshMaskMont(SecureRandom* rng, uint64_t* out,
                     MontgomeryCtx::Scratch* scratch) const;

  const PaillierPublicKey* pub_;
  Mode mode_ = Mode::kPairwise;

  // kPairwise masks, stored in Montgomery form so applying one is a
  // single fused CIOS pass (multiplying a Montgomery-form mask into a
  // plain-domain ciphertext yields the plain-domain product directly).
  // `pool_` keeps the plain values for the no-context fallback.
  std::vector<std::vector<uint64_t>> pool_mont_;
  std::vector<BigInt> pool_;

  // kFixedBase: radix-16 comb over h = r0^N in Montgomery form;
  // fb_table_[15 * w + (d - 1)] = ToMont(h^(d * 16^w)), d in [1, 15].
  unsigned short_exp_bits_ = 0;
  std::vector<std::vector<uint64_t>> fb_table_;
};

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_PAILLIER_H_
