// Internal to crypto/ec_p256.cpp: the 8-lane AVX-512 IFMA backend of the
// P-256 batch multiplies. Not part of the public API.
//
// Field elements cross this boundary as 4x64-limb values in the portable
// field's Montgomery domain (R = 2^256), canonical on the way in and on
// the way out. Inside, each lane holds five 52-bit limbs in the domain
// R = 2^260 (see ec_p256_ifma.cpp); conversion happens only here, at the
// batch edges, so outputs are bitwise what the portable path computes.

#ifndef SHUFFLEDP_CRYPTO_EC_P256_IFMA_H_
#define SHUFFLEDP_CRYPTO_EC_P256_IFMA_H_

#include <cstddef>
#include <cstdint>

#include "crypto/ec_p256.h"

namespace shuffledp {
namespace crypto {
namespace p256_ifma {

using Affine = P256Precomputed::Entry;

struct Jacobian {
  Scalar256 x, y, z;
};

/// Number of signed width-5 Booth digits of a scalar below 2^256.
constexpr int kBoothDigits = 52;

/// Comb digit of column j in [0, 32) of k: bits j + 32 half + {0, 64, 128,
/// 192} for the lo (half 0) and hi (half 1) tables.
inline uint32_t CombDigit(const Scalar256& k, int j, int half) {
  const int b = j + 32 * half;
  uint32_t d = 0;
  for (int tooth = 0; tooth < 4; ++tooth) {
    d |= static_cast<uint32_t>((k[tooth] >> b) & 1) << tooth;
  }
  return d;
}

/// True when the kernels below were compiled in (x86-64 builds). Callers
/// must also check the CPU (util/cpu_features.h) before calling them.
bool Compiled();

/// out[i] = k * points[i] for i < n, with k given as its Booth digits
/// (little-endian, each in [-16, 16]). Every point must be on the curve
/// and not infinity; the caller substitutes a dummy for infinity inputs
/// and discards those lanes. One fixed-window schedule serves all lanes:
/// 5 doublings and one addition per digit, the addend picked by a full
/// masked scan of each lane's 16-entry table.
void ScalarMultBatch(const int8_t booth[kBoothDigits], const Affine* points,
                     size_t n, Jacobian* out);

/// out[i] = ks[i] * P for i < n, on P's comb table (entries [1..15] and
/// [17..31], laid out as in P256Precomputed). Every scalar must be below
/// the group order. A k of zero yields a z coordinate of zero.
void CombMultBatch(const Affine table[32], const Scalar256* ks, size_t n,
                   Jacobian* out);

}  // namespace p256_ifma
}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_EC_P256_IFMA_H_
