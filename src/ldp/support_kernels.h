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
//  * `% d'` is computed exactly (bitwise identical to the `%` operator —
//    the hash mapping is protocol semantics shared with the client's
//    Encode, so no range-map substitution is allowed) via a power-of-two
//    mask or a precomputed magic-multiply divider (SupportModulus);
//  * reports × values are tiled so each pass streams cache-resident
//    blocks, with three backends behind runtime dispatch: a portable
//    4-value-unrolled scalar loop, an AVX2 backend running 4 64-bit
//    hash lanes per vector (VPMULUDQ-synthesized 64-bit multiplies),
//    and an AVX-512 backend running 8 lanes with native VPMULLQ/VPROLQ.
//
// Both backends are bitwise identical to the per-pair scalar path; the
// cross-check matrix in tests/ldp/support_kernel_test.cpp pins it.
// Dispatch mirrors the Montgomery batch kernels (crypto/montgomery.h):
// auto-detect once, `SHUFFLEDP_FORCE_PORTABLE=1` pins portable,
// `SHUFFLEDP_SUPPORT_BACKEND=scalar|portable|avx2` overrides explicitly,
// and SetSupportBackend() is the per-process programmatic switch.

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
  kPortable,  ///< straight-line 8-byte-key hash, 4-value unroll, magic mod
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
/// falls down the chain (avx512 → avx2 → portable). Returns the backend actually installed.
SupportBackend SetSupportBackend(SupportBackend backend);

const char* SupportBackendName(SupportBackend backend);

/// Exact `x % d` by precomputed multiply-shift (Granlund–Montgomery
/// branch-free round-up magic, the libdivide u64 scheme): one mulhi, two
/// shifts, one mullo, one subtract — no hardware divide. `Reduce(x)` is
/// bitwise equal to `x % d` for every uint64 x (pinned exhaustively-ish
/// in tests); powers of two reduce with a mask. d must be >= 2.
struct SupportModulus {
  explicit SupportModulus(uint32_t d);

  uint64_t Reduce(uint64_t x) const {
    if (mask != 0) return x & mask;
    uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(x) * magic) >> 64);
    uint64_t t = ((x - q) >> 1) + q;
    return x - (t >> shift) * d;
  }

  uint64_t d = 0;
  uint64_t magic = 0;   ///< branch-free magic multiplier (non-pow2 only)
  unsigned shift = 0;   ///< floor(log2 d)
  uint64_t mask = 0;    ///< d − 1 when d is a power of two, else 0
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
