// NIST P-256 (secp256r1) elliptic-curve arithmetic.
//
// The sequential-shuffle protocol (SS) wraps per-report AES keys with
// elliptic-curve ElGamal over secp256r1 (paper §VII-A "Implementation").
// This is a from-scratch implementation: a fixed 4x64-limb field with
// Montgomery (CIOS) multiplication, Jacobian point arithmetic with the
// a = -3 doubling formulas, and uncompressed SEC1 serialization.
//
// Scalar multiplication has one kernel per kind of point:
//
//  * Fixed points use a comb. BuildCombTable(P) combines the multiples
//    2^(32h+64t) P into two 16-entry affine tables (4 teeth x 64-bit
//    stride, split in halves), so k*P costs 31 doublings plus at most 64
//    mixed additions. ScalarBaseMult runs it on a static table for the
//    generator; P256Precomputed builds one for any other point that is
//    multiplied many times, e.g. the recipient of a batch of ECIES
//    reports. Building a table costs about one variable-point multiply.
//    The table lookup is a constant-time scan (every entry is touched
//    with masked selection).
//  * Variable points use width-5 wNAF with 8 odd multiples {1,3,...,15}P:
//    ~256 doublings plus ~43 signed mixed additions. ScalarMultBatch
//    recodes the one scalar once, builds every point's odd-multiple table
//    and normalizes all of them to affine with one field inversion;
//    ScalarMult is a batch of one.
//  * Batch variants (ScalarBaseMultBatch, ScalarMultBatch,
//    P256Precomputed::MultBatch) convert all results Jacobian->affine
//    with Montgomery's simultaneous inversion: one field inversion per
//    batch instead of one per point.
//  * ScalarMultReference / ScalarBaseMultReference keep the original
//    double-and-add ladder as an independent cross-check for tests.
//
// Aside from the comb table scan, the implementation is not hardened
// against timing side channels: this library is a research simulation,
// not a TLS stack (the paper likewise assumes "no side channels such as
// timing information", §V-B).

#ifndef SHUFFLEDP_CRYPTO_EC_P256_H_
#define SHUFFLEDP_CRYPTO_EC_P256_H_

#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace crypto {

class SecureRandom;

/// A 256-bit scalar (little-endian 64-bit limbs).
using Scalar256 = std::array<uint64_t, 4>;

/// A point on P-256 in affine coordinates, or the point at infinity.
struct P256Point {
  Scalar256 x{};
  Scalar256 y{};
  bool infinity = true;

  bool operator==(const P256Point& o) const {
    if (infinity != o.infinity) return false;
    if (infinity) return true;
    return x == o.x && y == o.y;
  }
};

/// P-256 group operations.
class P256 {
 public:
  static constexpr size_t kFieldBytes = 32;
  static constexpr size_t kPointBytes = 65;  // 0x04 || X || Y

  /// The standard base point G.
  static P256Point Generator();

  /// The group order n as little-endian limbs.
  static Scalar256 Order();

  /// Point addition (handles doubling and infinity).
  static P256Point Add(const P256Point& a, const P256Point& b);

  /// Scalar multiplication k * P (width-5 wNAF); a ScalarMultBatch of
  /// one. Pre: `p` is on the curve or infinity.
  static P256Point ScalarMult(const Scalar256& k, const P256Point& p);

  /// k * P_i for every point, recoding `k` once and sharing one field
  /// inversion for all the odd-multiple tables and one for all the
  /// outputs. Infinity entries map to infinity. Pre: every point is on
  /// the curve or infinity.
  static std::vector<P256Point> ScalarMultBatch(
      const Scalar256& k, const std::vector<P256Point>& points);

  /// k * G via the fixed-base comb table.
  static P256Point ScalarBaseMult(const Scalar256& k);

  /// k_i * G for every scalar, sharing the comb table and batching the
  /// Jacobian->affine conversion (one inversion per call).
  static std::vector<P256Point> ScalarBaseMultBatch(
      const std::vector<Scalar256>& ks);

  /// Reference double-and-add ladder (the original implementation), kept
  /// as an independent oracle for cross-checking the comb/wNAF paths.
  static P256Point ScalarMultReference(const Scalar256& k, const P256Point& p);
  static P256Point ScalarBaseMultReference(const Scalar256& k);

  /// True iff `p` satisfies the curve equation (or is infinity).
  static bool IsOnCurve(const P256Point& p);

  /// Uncompressed SEC1 encoding (65 bytes). Pre: not infinity.
  static Bytes Serialize(const P256Point& p);

  /// Parses an uncompressed point and validates it is on the curve.
  static Result<P256Point> Parse(const Bytes& bytes);

  /// Uniform scalar in [1, n-1].
  static Scalar256 RandomScalar(SecureRandom* rng);
};

/// Reusable comb table for one fixed point, the same kernel ScalarBaseMult
/// runs on the generator. Construction builds (and batch-normalizes) the
/// table once, at about the cost of one ScalarMult; Mult and MultBatch then
/// cost 31 doublings plus at most 64 mixed additions each. Immutable after
/// construction and safe to share across threads.
class P256Precomputed {
 public:
  /// Pre: `p` is on the curve or infinity (every multiple of infinity is
  /// infinity).
  explicit P256Precomputed(const P256Point& p);

  const P256Point& point() const { return point_; }

  /// k * P.
  P256Point Mult(const Scalar256& k) const;

  /// k_i * P for every scalar, with one batched affine conversion.
  std::vector<P256Point> MultBatch(const std::vector<Scalar256>& ks) const;

  // An affine point in the Montgomery domain. Public only because the
  // implementation uses it as its internal affine type; not part of the
  // supported API surface.
  struct Entry {
    Scalar256 x;
    Scalar256 y;
  };

 private:
  P256Point point_;
  // Comb table: [b] = (b0 + b1 2^64 + b2 2^128 + b3 2^192) P and
  // [16 + b] = 2^32 times that, for b = b3b2b1b0 in [1, 15]. Entries 0 and
  // 16 (infinity) are never read.
  std::array<Entry, 32> comb_{};
};

/// Converts a scalar to/from 32 big-endian bytes.
Bytes ScalarToBytes(const Scalar256& s);
Scalar256 ScalarFromBytes(const uint8_t bytes[32]);

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_EC_P256_H_
