// SHA-256 (FIPS 180-4), used as the KDF inside ECIES onion layers.
//
// The compression function dispatches at runtime to the x86 SHA
// extensions (SHA-NI) when the CPU supports them, with the portable
// scalar rounds as fallback; tests can pin the portable path with
// SetShaBackend so both implementations run everywhere.

#ifndef SHUFFLEDP_CRYPTO_SHA256_H_
#define SHUFFLEDP_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.h"

namespace shuffledp {
namespace crypto {

/// Compression-function implementation choices.
enum class ShaBackend {
  kPortable,  ///< scalar FIPS 180-4 rounds (always available)
  kShaNi,     ///< x86 SHA extensions
};

/// The fastest backend supported by this CPU; kPortable when
/// SHUFFLEDP_FORCE_PORTABLE=1 (util/cpu_features.h).
ShaBackend BestShaBackend();

/// Backend used by subsequent Sha256 operations.
ShaBackend ActiveShaBackend();

/// Overrides the backend; kShaNi silently degrades to kPortable when the
/// CPU lacks the SHA extensions or SHUFFLEDP_FORCE_PORTABLE=1. Intended for tests and benchmarks.
void SetShaBackend(ShaBackend backend);

/// Human-readable backend name ("shani" / "portable").
const char* ShaBackendName(ShaBackend backend);

/// Incremental SHA-256.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  /// Absorbs `len` bytes.
  void Update(const void* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards (call Reset() to reuse).
  std::array<uint8_t, kDigestSize> Finish();

  /// Clears the state for a fresh message.
  void Reset();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const void* data, size_t len);
  static std::array<uint8_t, kDigestSize> Hash(const Bytes& data) {
    return Hash(data.data(), data.size());
  }

 private:
  void ProcessBlock(const uint8_t block[64]);
  void ProcessBlocks(const uint8_t* data, size_t nblocks);

  uint32_t h_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

/// HMAC-SHA256 (RFC 2104) — used for report authentication in the
/// spot-checking defense.
std::array<uint8_t, 32> HmacSha256(const Bytes& key, const Bytes& message);

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_SHA256_H_
