#include "util/hash.h"

#include <cstring>

namespace shuffledp {
namespace {

constexpr uint64_t kPrime64_1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime64_2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime64_3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime64_4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime64_5 = 0x27D4EB2F165667C5ULL;

constexpr uint32_t kPrime32_1 = 0x9E3779B1U;
constexpr uint32_t kPrime32_2 = 0x85EBCA77U;
constexpr uint32_t kPrime32_3 = 0xC2B2AE3DU;
constexpr uint32_t kPrime32_4 = 0x27D4EB2FU;
constexpr uint32_t kPrime32_5 = 0x165667B1U;

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
inline uint32_t Rotl32(uint32_t x, int r) { return (x << r) | (x >> (32 - r)); }

inline uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian host assumed (x86-64 / aarch64)
}

inline uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round64(uint64_t acc, uint64_t input) {
  acc += input * kPrime64_2;
  acc = Rotl64(acc, 31);
  acc *= kPrime64_1;
  return acc;
}

inline uint64_t MergeRound64(uint64_t acc, uint64_t val) {
  val = Round64(0, val);
  acc ^= val;
  acc = acc * kPrime64_1 + kPrime64_4;
  return acc;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* end = p + len;
  uint64_t h64;

  if (len >= 32) {
    const uint8_t* limit = end - 32;
    uint64_t v1 = seed + kPrime64_1 + kPrime64_2;
    uint64_t v2 = seed + kPrime64_2;
    uint64_t v3 = seed + 0;
    uint64_t v4 = seed - kPrime64_1;
    do {
      v1 = Round64(v1, Read64(p));
      p += 8;
      v2 = Round64(v2, Read64(p));
      p += 8;
      v3 = Round64(v3, Read64(p));
      p += 8;
      v4 = Round64(v4, Read64(p));
      p += 8;
    } while (p <= limit);

    h64 = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h64 = MergeRound64(h64, v1);
    h64 = MergeRound64(h64, v2);
    h64 = MergeRound64(h64, v3);
    h64 = MergeRound64(h64, v4);
  } else {
    h64 = seed + kPrime64_5;
  }

  h64 += static_cast<uint64_t>(len);

  while (p + 8 <= end) {
    uint64_t k1 = Round64(0, Read64(p));
    h64 ^= k1;
    h64 = Rotl64(h64, 27) * kPrime64_1 + kPrime64_4;
    p += 8;
  }
  if (p + 4 <= end) {
    h64 ^= static_cast<uint64_t>(Read32(p)) * kPrime64_1;
    h64 = Rotl64(h64, 23) * kPrime64_2 + kPrime64_3;
    p += 4;
  }
  while (p < end) {
    h64 ^= static_cast<uint64_t>(*p) * kPrime64_5;
    h64 = Rotl64(h64, 11) * kPrime64_1;
    ++p;
  }

  h64 ^= h64 >> 33;
  h64 *= kPrime64_2;
  h64 ^= h64 >> 29;
  h64 *= kPrime64_3;
  h64 ^= h64 >> 32;
  return h64;
}

uint32_t XxHash32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* end = p + len;
  uint32_t h32;

  if (len >= 16) {
    const uint8_t* limit = end - 16;
    uint32_t v1 = seed + kPrime32_1 + kPrime32_2;
    uint32_t v2 = seed + kPrime32_2;
    uint32_t v3 = seed + 0;
    uint32_t v4 = seed - kPrime32_1;
    do {
      v1 = Rotl32(v1 + Read32(p) * kPrime32_2, 13) * kPrime32_1;
      p += 4;
      v2 = Rotl32(v2 + Read32(p) * kPrime32_2, 13) * kPrime32_1;
      p += 4;
      v3 = Rotl32(v3 + Read32(p) * kPrime32_2, 13) * kPrime32_1;
      p += 4;
      v4 = Rotl32(v4 + Read32(p) * kPrime32_2, 13) * kPrime32_1;
      p += 4;
    } while (p <= limit);
    h32 = Rotl32(v1, 1) + Rotl32(v2, 7) + Rotl32(v3, 12) + Rotl32(v4, 18);
  } else {
    h32 = seed + kPrime32_5;
  }

  h32 += static_cast<uint32_t>(len);

  while (p + 4 <= end) {
    h32 += Read32(p) * kPrime32_3;
    h32 = Rotl32(h32, 17) * kPrime32_4;
    p += 4;
  }
  while (p < end) {
    h32 += static_cast<uint32_t>(*p) * kPrime32_5;
    h32 = Rotl32(h32, 11) * kPrime32_1;
    ++p;
  }

  h32 ^= h32 >> 15;
  h32 *= kPrime32_2;
  h32 ^= h32 >> 13;
  h32 *= kPrime32_3;
  h32 ^= h32 >> 16;
  return h32;
}

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial, built once:
// entries[0] is the classic byte-at-a-time table, and entries[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes per step.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

// Little-endian 32-bit load, whatever the host byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFU;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace shuffledp
