// xxHash32 / xxHash64 (from scratch) and the universal-hash wrapper used by
// the local-hashing frequency oracles (OLH / SOLH).
//
// Local hashing reports a pair <seed, GRR(H_seed(v))>; the seed identifies a
// member of the hash family. We instantiate the family as
//   H_seed(v) = xxhash64(v, seed) mod d'
// exactly as in the paper's implementation ("we use 32 bits to denote the
// seed of the hash function").

#ifndef SHUFFLEDP_UTIL_HASH_H_
#define SHUFFLEDP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace shuffledp {

/// xxHash64 of `data[0..len)` with `seed`. Matches the reference vectors of
/// the xxHash specification.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed);

/// xxHash32 of `data[0..len)` with `seed`.
uint32_t XxHash32(const void* data, size_t len, uint32_t seed);

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of
/// `data[0..len)`. Guards the transport frames, WAL records and round
/// store segments in src/service/ against torn writes and corruption;
/// matches zlib's crc32() so payloads can be cross-checked with
/// standard tooling. Computed slicing-by-8 (eight bytes per table step);
/// tests/util/hash_test compares it with the byte-at-a-time definition.
/// `seed` chains incremental computations (pass the previous return
/// value); 0 starts a fresh checksum.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Convenience overloads.
inline uint64_t XxHash64(std::string_view s, uint64_t seed) {
  return XxHash64(s.data(), s.size(), seed);
}
inline uint32_t XxHash32(std::string_view s, uint32_t seed) {
  return XxHash32(s.data(), s.size(), seed);
}

/// Straight-line xxHash64 specialization for an exactly-8-byte
/// little-endian key — the only shape the local-hashing oracles ever
/// hash. The generic XxHash64 length dispatch (len < 32 header, one
/// 8-byte round, no 4-/1-byte tail) collapses to the ~dozen operations
/// below; the result is bitwise identical to
/// `XxHash64(&key, sizeof(key), seed)` (pinned by tests/util/hash_test
/// and tests/ldp/support_kernel_test). The bulk support-aggregation
/// kernels (ldp/support_kernels.h) evaluate this same sequence
/// lane-parallel; keep the two in sync.
inline uint64_t XxHash64Key8(uint64_t key, uint64_t seed) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  auto rotl = [](uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  uint64_t k1 = rotl(key * kP2, 31) * kP1;
  uint64_t h = (seed + kP5 + 8) ^ k1;
  h = rotl(h, 27) * kP1 + kP4;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Universal hash used by OLH/SOLH: maps `value` in [0, d) to [0, range)
/// under the family member identified by `seed`.
///
/// For a fixed value, varying the seed gives (empirically) pairwise-
/// independent outputs, which is the property the estimator calibration
/// (Eq. 3) relies on: Pr_seed[H(v) = H(v')] = 1/range for v != v'.
inline uint32_t UniversalHash(uint64_t value, uint32_t seed, uint32_t range) {
  return static_cast<uint32_t>(XxHash64Key8(value, seed) % range);
}

}  // namespace shuffledp

#endif  // SHUFFLEDP_UTIL_HASH_H_
