// AES-128 (FIPS 197) with CBC (PKCS#7) and CTR modes.
//
// Used for the symmetric layer of the sequential-shuffle (SS) onion
// encryption: the paper encrypts each report with a fresh AES-128-CBC key
// and wraps that key with elliptic-curve ElGamal (our ECIES; see ecies.h).
//
// Two block-cipher backends sit behind one interface: hardware AES-NI
// (selected at runtime via CPUID) and the original table-based portable
// code. ECIES and every other caller pick the backend up transparently
// through Aes128; tests can pin the portable backend with SetAesBackend
// so both implementations run on any host.

#ifndef SHUFFLEDP_CRYPTO_AES_H_
#define SHUFFLEDP_CRYPTO_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace crypto {

/// Block-cipher implementation choices.
enum class AesBackend {
  kPortable,  ///< table-based software AES (always available)
  kAesNi,     ///< x86 AES-NI instructions
};

/// The fastest backend supported by this CPU; kPortable when
/// SHUFFLEDP_FORCE_PORTABLE=1 (util/cpu_features.h).
AesBackend BestAesBackend();

/// Backend that newly constructed Aes128 instances will use.
AesBackend ActiveAesBackend();

/// Overrides the backend for subsequently constructed instances. Requests
/// for kAesNi silently degrade to kPortable when the CPU lacks support
/// or SHUFFLEDP_FORCE_PORTABLE=1, so forced-fallback tests are safe everywhere. Not thread-safe against
/// concurrent Aes128 construction; intended for tests and benchmarks.
void SetAesBackend(AesBackend backend);

/// Human-readable backend name ("aesni" / "portable").
const char* AesBackendName(AesBackend backend);

/// AES-128 block cipher with an expanded key schedule.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  /// Expands the 16-byte `key` using the active backend.
  explicit Aes128(const std::array<uint8_t, kKeySize>& key);

  /// Encrypts one 16-byte block in place (out may alias in).
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  /// Decrypts one 16-byte block.
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  /// Encrypts `nblocks` independent 16-byte blocks (ECB layout). The
  /// AES-NI backend pipelines four blocks in flight; CTR mode is built on
  /// this. `out` may alias `in`.
  void EncryptBlocks(const uint8_t* in, uint8_t* out, size_t nblocks) const;

  /// Backend this instance was constructed with.
  AesBackend backend() const { return backend_; }

 private:
  // 11 round keys of 16 bytes.
  uint8_t round_keys_[176];
  // Equivalent Inverse Cipher round keys (AES-NI decryption only).
  uint8_t dec_round_keys_[176];
  AesBackend backend_;
};

/// CBC mode with PKCS#7 padding. Output is IV || ciphertext.
Bytes AesCbcEncrypt(const std::array<uint8_t, 16>& key,
                    const std::array<uint8_t, 16>& iv, const Bytes& plaintext);

/// Inverse of AesCbcEncrypt; input must be IV || ciphertext. Returns
/// CryptoError on bad padding or truncated input.
Result<Bytes> AesCbcDecrypt(const std::array<uint8_t, 16>& key,
                            const Bytes& iv_and_ciphertext);

/// CTR mode keystream XOR (encryption == decryption). `nonce` forms the
/// high 12 bytes of the counter block; the low 4 bytes hold the big-endian
/// block counter starting at `initial_counter`.
Bytes AesCtrCrypt(const std::array<uint8_t, 16>& key,
                  const std::array<uint8_t, 12>& nonce, const Bytes& data,
                  uint32_t initial_counter = 0);

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_AES_H_
