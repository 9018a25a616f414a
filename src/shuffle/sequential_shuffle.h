// SS — sequential shuffling with onion encryption (paper §VI-A1, evaluated
// as the baseline protocol in Table III).
//
// Users onion-encrypt their LDP report for the chain
// shuffler_1 -> ... -> shuffler_r -> server. Each shuffler peels one
// layer, injects n_r / r fake reports (encrypted under the remaining
// layers), shuffles, and forwards. The server peels the last layer and
// estimates. The protocol's two weaknesses — shufflers can bias their
// fake reports and can replace user reports — are reproducible through
// the malicious-behaviour knobs, and the spot-checking mitigation (server
// plants dummy accounts) is implemented as described.

#ifndef SHUFFLEDP_SHUFFLE_SEQUENTIAL_SHUFFLE_H_
#define SHUFFLEDP_SHUFFLE_SEQUENTIAL_SHUFFLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/ecies.h"
#include "crypto/secure_random.h"
#include "ldp/frequency_oracle.h"
#include "service/streaming_collector.h"
#include "shuffle/cost_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {

/// Ways a shuffler can deviate (for the robustness experiments).
enum class ShufflerBehaviour {
  kHonest,
  kBiasedFakes,     ///< draws all fake reports as a fixed target value
  kReplaceReports,  ///< replaces user reports with the target value
  kDropReports,     ///< silently drops half of the reports
};

/// SS protocol configuration.
struct SequentialShuffleConfig {
  uint32_t num_shufflers = 3;
  uint64_t fake_reports_total = 0;       ///< n_r, split evenly
  uint64_t spot_check_dummies = 0;       ///< server-planted dummy accounts
  uint64_t poison_target_value = 0;      ///< used by malicious behaviours
  std::vector<ShufflerBehaviour> behaviours;  ///< per shuffler; default honest
  ThreadPool* pool = nullptr;            ///< parallel user encryption
  /// Server-side ingestion pipeline knobs (batch size, queue capacity,
  /// shard count, the crash-safe `streaming.round_store`).
  /// `streaming.pool` is ignored — the server pipeline shares `pool`.
  service::StreamingOptions streaming;
};

/// Result of one SS collection round.
struct SequentialShuffleResult {
  std::vector<double> estimates;       ///< frequency estimates over [0, d)
  bool spot_check_passed = true;       ///< all dummies arrived untampered
  uint64_t reports_at_server = 0;      ///< |reports| after the last peel
  CostReport costs;
  service::StreamingStats streaming;   ///< server ingestion pipeline stats
};

/// Runs the full SS protocol over `values` with the given oracle.
///
/// The estimation de-biases both the fake reports and (when spot checks
/// are planted) the dummy reports; a failed spot check is reported but
/// estimation still proceeds so callers can observe the poisoned result.
Result<SequentialShuffleResult> RunSequentialShuffle(
    const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& values, const SequentialShuffleConfig& config,
    crypto::SecureRandom* rng);

}  // namespace shuffle
}  // namespace shuffledp

#endif  // SHUFFLEDP_SHUFFLE_SEQUENTIAL_SHUFFLE_H_
