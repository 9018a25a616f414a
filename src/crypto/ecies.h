// ECIES hybrid public-key encryption over P-256.
//
// Instantiates the paper's "generate a random AES key, encrypt the message
// with AES-128-CBC, and encrypt the AES key with ElGamal over secp256r1":
// an ephemeral ECDH share plays the ElGamal role, SHA-256 of the shared
// point derives the AES key and IV. Wire format:
//
//   0x04 || R.x || R.y   (65 bytes, ephemeral public point)
//   IV || CBC ciphertext (16 + padded length)
//
// The per-report hot paths are batched. EciesEncryptBatch reuses the
// generator's fixed-base comb for every ephemeral key, builds one comb
// table for the recipient per batch, converts all ephemeral and shared
// points to affine with one Montgomery simultaneous inversion per chunk,
// and optionally fans chunks out over a ThreadPool. EciesDecryptBatch
// recodes the private key once and runs every blob's ephemeral point
// through one batched fixed-window multiply (P256::ScalarMultBatch),
// sharing the field inversions. OnionEncrypt / OnionEncryptBatch wrap layered
// recipients for the sequential-shuffle protocol; a shuffler peels its
// layer with EciesDecryptBatch. The single-shot EciesEncrypt and
// EciesDecrypt produce and accept the same bytes.
//
// Every encrypt entry point rejects a recipient that is infinity or off
// the curve with CryptoError: such a recipient would make the derived AES
// key public. The P-256 multiplies under both directions run in time
// independent of the secret scalar (see ec_p256.h).

#ifndef SHUFFLEDP_CRYPTO_ECIES_H_
#define SHUFFLEDP_CRYPTO_ECIES_H_

#include <vector>

#include "crypto/ec_p256.h"
#include "crypto/secure_random.h"
#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {

class ThreadPool;

namespace crypto {

/// An ECIES key pair.
struct EciesKeyPair {
  Scalar256 private_key;
  P256Point public_key;
};

/// Generates a fresh key pair.
EciesKeyPair EciesGenerateKeyPair(SecureRandom* rng);

/// Encrypts `plaintext` to `recipient`. Fresh ephemeral key per call.
/// CryptoError when `recipient` is infinity or not on the curve.
Result<Bytes> EciesEncrypt(const P256Point& recipient, const Bytes& plaintext,
                           SecureRandom* rng);

/// Encrypts each plaintext to `recipient` with an independent ephemeral
/// key (output[i] decrypts exactly like EciesEncrypt(recipient,
/// plaintexts[i])), amortizing the elliptic-curve precomputation across
/// the batch. Ephemeral scalars are drawn serially from `rng`; the point
/// arithmetic and symmetric work run on `pool` when one is supplied.
/// CryptoError (before any scalar is drawn) when `recipient` is infinity
/// or not on the curve.
Result<std::vector<Bytes>> EciesEncryptBatch(
    const P256Point& recipient, const std::vector<Bytes>& plaintexts,
    SecureRandom* rng, ThreadPool* pool = nullptr);

/// Decrypts every blob with one batched multiply by `private_key`.
/// Entry i is exactly what EciesDecrypt(private_key, blobs[i]) returns:
/// the plaintext, or CryptoError for a short blob, a malformed or
/// off-curve ephemeral point, a degenerate shared point, or bad padding.
/// Runs serially; callers fan chunks of blobs out themselves.
std::vector<Result<Bytes>> EciesDecryptBatch(const Scalar256& private_key,
                                             const std::vector<Bytes>& blobs);

/// Decrypts a blob produced by EciesEncrypt; a batch of one.
Result<Bytes> EciesDecrypt(const Scalar256& private_key, const Bytes& blob);

/// Ciphertext expansion: bytes added on top of the padded plaintext.
/// 65 (point) + 16 (IV); CBC padding adds 1..16 more.
constexpr size_t kEciesOverhead = 65 + 16;

/// Onion encryption: encrypts `payload` under `layers` back-to-front so
/// that layers[0] peels first (the first shuffler), layers.back() last
/// (the server). Each layer is one EciesEncrypt, and one EciesDecrypt
/// removes it. CryptoError when any layer is not a valid recipient.
Result<Bytes> OnionEncrypt(const std::vector<P256Point>& layers,
                           const Bytes& payload, SecureRandom* rng);

/// Onion-encrypts every payload, batching each layer's ECIES pass across
/// all reports (one recipient table + batched affine conversions per
/// layer). Equivalent to mapping OnionEncrypt over `payloads`.
Result<std::vector<Bytes>> OnionEncryptBatch(
    const std::vector<P256Point>& layers, const std::vector<Bytes>& payloads,
    SecureRandom* rng, ThreadPool* pool = nullptr);

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_ECIES_H_
