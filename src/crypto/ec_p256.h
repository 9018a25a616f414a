// NIST P-256 (secp256r1) elliptic-curve arithmetic.
//
// The sequential-shuffle protocol (SS) wraps per-report AES keys with
// elliptic-curve ElGamal over secp256r1 (paper §VII-A "Implementation").
// This is a from-scratch implementation: a P-256-specific 4x64-limb
// Montgomery field (the Montgomery factor -p^-1 mod 2^64 is 1, and every
// operation is branchless with canonical results), Jacobian point
// arithmetic with the a = -3 doubling formulas, and uncompressed SEC1
// serialization.
//
// Scalar multiplication has one kernel per kind of point:
//
//  * Fixed points use a comb. BuildCombTable(P) combines the multiples
//    2^(32h+64t) P into two 16-entry affine tables (4 teeth x 64-bit
//    stride, split in halves), so k*P costs 31 doublings plus 64 mixed
//    additions. ScalarBaseMult runs it on a static table for the
//    generator; P256Precomputed builds one for any other point that is
//    multiplied many times, e.g. the recipient of a batch of ECIES
//    reports. Building a table costs about one variable-point multiply.
//  * Variable points use a regular signed fixed window: the scalar is
//    recoded once into 52 width-5 Booth digits in [-16, 16], and each
//    point runs 5 doublings plus one addition of +-T[|d|] per digit, with
//    T[i] = i*P for i in [1, 16]. ScalarMultBatch recodes the one scalar
//    once for every point; ScalarMult is a batch of one.
//  * Batch variants (ScalarBaseMultBatch, ScalarMultBatch,
//    P256Precomputed::MultBatch) convert all results Jacobian->affine
//    with Montgomery's simultaneous inversion: one field inversion per
//    batch instead of one per point. The single-point calls are batches
//    of one.
//  * ScalarMultReference / ScalarBaseMultReference keep the original
//    double-and-add ladder as an independent cross-check for tests.
//
// Constant-time contract: every scalar multiply above, i.e. everything
// but the reference ladders, P256::Add and table construction, runs in
// time independent of the scalar. The scalar is reduced mod n without a
// branch, every window adds a table entry found by a full masked scan,
// and a zero digit or a still-infinite accumulator is handled by masked
// selection, never by a branch; the comments in ec_p256.cpp prove that no
// scalar reaches the addition formula's exceptional cases. Timing may
// depend on public data only: the batch size and which input points are
// infinity. tests/crypto/timing_leak_test.cpp checks the contract with
// dudect-style Welch t-tests on both backends.
//
// Two backends run the same schedules behind one CPUID dispatch
// (P256Backend): the portable one above, and an 8-lane AVX-512 IFMA one
// (52-bit limbs, vpmadd52{lo,hi}uq) that runs one point per lane in
// ScalarMultBatch and one scalar per lane in the comb. Results convert
// back to the portable domain at the batch edges, so both backends
// return bitwise-identical points.

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

/// Implementation tiers of the P-256 batch multiplies. Same dispatch
/// shape as the Montgomery, AES, SHA-256 and support-kernel backends.
enum class P256Backend {
  kPortable,  ///< 4x64-limb field, one point at a time (always available)
  kIfma,      ///< 8 lanes of 52-bit limbs via AVX-512 IFMA
};

/// Best backend the host supports; kPortable when
/// SHUFFLEDP_FORCE_PORTABLE=1 (util/cpu_features.h).
P256Backend BestP256Backend();

/// Backend the multiplies currently use (defaults to BestP256Backend()).
P256Backend ActiveP256Backend();

/// Overrides the backend (tests/benchmarks); kIfma silently degrades to
/// kPortable when unavailable. Returns the backend actually selected.
P256Backend SetP256Backend(P256Backend backend);

/// "portable" / "ifma".
const char* P256BackendName(P256Backend backend);

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

  /// Scalar multiplication k * P; a ScalarMultBatch of one. Pre: `p` is
  /// on the curve or infinity.
  static P256Point ScalarMult(const Scalar256& k, const P256Point& p);

  /// k * P_i for every point, recoding `k` once. The portable backend
  /// shares one field inversion for all the 16-entry tables; both share
  /// one for all the outputs. Infinity entries map to infinity. Pre:
  /// every point is on the curve or infinity.
  static std::vector<P256Point> ScalarMultBatch(
      const Scalar256& k, const std::vector<P256Point>& points);

  /// k * G via the fixed-base comb table; a ScalarBaseMultBatch of one.
  static P256Point ScalarBaseMult(const Scalar256& k);

  /// k_i * G for every scalar, sharing the comb table and batching the
  /// Jacobian->affine conversion (one inversion per call).
  static std::vector<P256Point> ScalarBaseMultBatch(
      const std::vector<Scalar256>& ks);

  /// Reference double-and-add ladder (the original implementation), kept
  /// as an independent oracle for cross-checking the comb and
  /// fixed-window paths. Variable time; tests only.
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
/// cost 31 doublings plus 64 mixed additions each, in constant time.
/// Immutable after construction and safe to share across threads.
class P256Precomputed {
 public:
  /// Pre: `p` is on the curve or infinity (every multiple of infinity is
  /// infinity).
  explicit P256Precomputed(const P256Point& p);

  const P256Point& point() const { return point_; }

  /// k * P; a MultBatch of one.
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
  // 16 (infinity) are zero and never selected.
  std::array<Entry, 32> comb_{};
};

/// Converts a scalar to/from 32 big-endian bytes.
Bytes ScalarToBytes(const Scalar256& s);
Scalar256 ScalarFromBytes(const uint8_t bytes[32]);

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_CRYPTO_EC_P256_H_
