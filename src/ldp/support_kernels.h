// Bulk support-evaluation kernels for the local-hashing oracles.
//
// The server-side aggregation cost of OLH/SOLH is O(batch × d) evaluations
// of `XxHash64(v, seed) % d' == report.value` — one short-key hash per
// (report, domain value) pair (paper §IV-B fixes the per-pair work to
// exactly this). The kernels here evaluate that predicate in bulk:
//
//  * the generic length-dispatching XxHash64 collapses to a straight-line
//    ~dozen-op sequence for an 8-byte key (util/hash.h XxHash64Key8);
//  * the per-value first hash round `rotl(v · P2, 31) · P1` is
//    seed-independent, so a value tile hoists it out of the report loop;
//  * `% d' == value` is decided exactly (bitwise the `%` operator: the
//    hash mapping is protocol semantics shared with the client's Encode)
//    by a power-of-two mask or the divisibility test SupportModulus;
//  * reports × values are tiled so each pass streams cache-resident
//    blocks, with three tiers behind runtime dispatch: a portable
//    4-value-unrolled scalar loop, an AVX2 backend running 4 64-bit
//    hash lanes per vector (VPMULUDQ-synthesized 64-bit multiplies),
//    and an AVX-512 backend running 8 lanes with native VPMULLQ/VPROLQ.
//
// All three tiers are bitwise identical to the per-pair scalar reference
// (kScalar); tests/ldp/support_kernel_test.cpp pins it. Dispatch mirrors
// the Montgomery batch kernels: auto-detect once,
// `SHUFFLEDP_FORCE_PORTABLE=1` pins portable,
// `SHUFFLEDP_SUPPORT_BACKEND=scalar|portable|avx2|avx512` overrides, and
// SetSupportBackend() is the per-process programmatic switch.

#ifndef SHUFFLEDP_LDP_SUPPORT_KERNELS_H_
#define SHUFFLEDP_LDP_SUPPORT_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "ldp/frequency_oracle.h"

namespace shuffledp {
namespace ldp {

/// Which implementation the bulk support evaluations run on.
enum class SupportBackend {
  kScalar,    ///< per-pair generic-hash reference loop (cross-check baseline)
  kPortable,  ///< straight-line 8-byte-key hash, 4-value unroll
  kAvx2,      ///< 4 × 64-bit hash lanes per vector (x86-64 AVX2)
  kAvx512,    ///< 8 × 64-bit lanes, native VPMULLQ/VPROLQ (AVX-512F+DQ)
};

/// Best backend the host supports. Honors SHUFFLEDP_SUPPORT_BACKEND
/// (scalar|portable|avx2|avx512) first, then SHUFFLEDP_FORCE_PORTABLE=1.
SupportBackend BestSupportBackend();

/// Backend the kernels currently use (defaults to BestSupportBackend()).
SupportBackend ActiveSupportBackend();

/// Overrides the backend (tests/benchmarks). A SIMD request on a host
/// without that instruction set, or under SHUFFLEDP_FORCE_PORTABLE=1,
/// falls down the chain (avx512 → avx2 → portable). Returns the backend
/// actually installed.
SupportBackend SetSupportBackend(SupportBackend backend);

const char* SupportBackendName(SupportBackend backend);

/// Exact `h % d == y` without a divide: for y < d it is h ≥ y ∧ d | (h − y),
/// and with d = 2^tz · odd, d | x iff rotr(x · odd⁻¹ mod 2^64, tz) ≤
/// ⌊(2^64 − 1)/d⌋ (Granlund & Montgomery 1994; Lemire, Kaser & Kurz 2019).
/// A y ≥ d never matches; powers of two use a mask. d must be >= 2.
struct SupportModulus {
  explicit SupportModulus(uint32_t d);

  bool Matches(uint64_t h, uint64_t y) const {
    if (mask != 0) return (h & mask) == y;
    const uint64_t x = (h - y) * inv;
    // `& 63` keeps odd d (tz = 0) off a shift by 64.
    const uint64_t r = (x >> tz) | (x << ((64 - tz) & 63));
    return (y < d) & (h >= y) & (r <= limit);
  }

  uint64_t d = 0;
  uint64_t inv = 0;    ///< inverse of d's odd part mod 2^64
  unsigned tz = 0;     ///< trailing zero bits of d
  uint64_t limit = 0;  ///< ⌊(2^64 − 1)/d⌋
  uint64_t mask = 0;   ///< d − 1 when d is a power of two, else 0
};

/// Bulk OLH/SOLH support aggregation:
///   counts[v − value_lo] += |{ i : XxHash64(v, reports[i].seed) % d_prime
///                                  == reports[i].value }|
/// for every v in [value_lo, value_hi). Counts are added, never assigned.
/// Runs on ActiveSupportBackend() (kScalar behaves like kPortable here —
/// the reference loop lives in ScalarFrequencyOracle::AccumulateSupports).
void AccumulateLocalHashSupports(const LdpReport* reports, size_t count,
                                 uint64_t value_lo, uint64_t value_hi,
                                 uint32_t d_prime, uint64_t* counts);

/// Bulk single-value form: how many of `reports` support `value`?
/// Lane-parallel across reports (the attack-matrix / sparse-eval shape).
uint64_t CountLocalHashSupports(const LdpReport* reports, size_t count,
                                uint64_t value, uint32_t d_prime);

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_SUPPORT_KERNELS_H_
