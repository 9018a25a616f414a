// PEOS — Private Encrypted Oblivious Shuffle (paper Algorithm 1).
//
// End-to-end flow:
//   1. User i computes Y_i = FO(v_i) (GRR or SOLH), packs it into a 64-bit
//      word, splits it into r additive shares over Z_{2^ell}; shares
//      1..r−1 go to shufflers in the clear (over secure channels), share r
//      is Paillier-encrypted under the server's public key and goes to
//      shuffler r.
//   2. Shuffler j < r samples n_r fake-report shares uniformly; shuffler r
//      encrypts its fake shares. (A malicious shuffler can bias its own
//      shares — the other shufflers' uniform shares mask them, which the
//      robustness tests verify.)
//   3. All shufflers run EOS over the n + n_r share rows.
//   4. The server receives the r plaintext columns and the ciphertext
//      column, decrypts, reconstructs the packed reports mod 2^ell,
//      unpacks, and estimates with the fake-report-aware calibration.

#ifndef SHUFFLEDP_SHUFFLE_PEOS_H_
#define SHUFFLEDP_SHUFFLE_PEOS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/secure_random.h"
#include "ldp/frequency_oracle.h"
#include "service/streaming_collector.h"
#include "shuffle/cost_model.h"
#include "shuffle/oblivious_shuffle.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {

/// Malicious-shuffler knobs for the poisoning experiments.
enum class PeosShufflerBehaviour {
  kHonest,
  kBiasedFakeShares,  ///< sets its fake-report shares to a constant
};

/// PEOS protocol configuration.
struct PeosConfig {
  uint32_t num_shufflers = 3;           ///< r
  uint64_t fake_reports = 0;            ///< n_r (total, one share set each)
  unsigned ell = 64;                    ///< share group Z_{2^ell}
  size_t paillier_bits = 1024;          ///< server AHE modulus size
  bool use_randomizer_pool = true;      ///< DESIGN.md §4 item 5
  size_t randomizer_pool_size = 64;
  std::vector<PeosShufflerBehaviour> behaviours;  ///< default: honest
  uint64_t poison_target_packed = 0;    ///< payload for biased shares
  ThreadPool* pool = nullptr;
  /// Server-side ingestion pipeline knobs, including the crash-safe
  /// `streaming.round_store`; `streaming.pool` is ignored (the server
  /// pipeline shares `pool`).
  service::StreamingOptions streaming;
};

/// Result of one PEOS collection round.
struct PeosResult {
  std::vector<double> estimates;   ///< frequencies over [0, d)
  uint64_t reports_decoded = 0;    ///< valid reports after reconstruction
  uint64_t reports_invalid = 0;    ///< failed ValidateReport (poison noise)
  CostReport costs;
  service::StreamingStats streaming;  ///< server ingestion pipeline stats
};

/// Runs the full PEOS protocol over `values`.
Result<PeosResult> RunPeos(const ldp::ScalarFrequencyOracle& oracle,
                           const std::vector<uint64_t>& values,
                           const PeosConfig& config,
                           crypto::SecureRandom* rng);

/// Collusion analysis helper (§V, §VI-B): reconstructs the *view of the
/// server colluding with all users except `victim_index`* — i.e., the
/// decoded multiset minus every non-victim user's true report. What
/// remains is the victim's report hidden among the n_r fake reports; the
/// attack tests verify the residual matches the Bin(n_r, 1/d') blanket of
/// Corollary 8.
struct CollusionView {
  std::vector<uint64_t> residual_support;  ///< per-value support counts
  ldp::LdpReport victim_report;            ///< ground truth (test oracle)
};

}  // namespace shuffle
}  // namespace shuffledp

#endif  // SHUFFLEDP_SHUFFLE_PEOS_H_
