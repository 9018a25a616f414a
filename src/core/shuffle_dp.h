// Public facade: one object that plans, runs, and estimates a PEOS
// histogram collection — the API a downstream user adopts.
//
// Quickstart:
//
//   core::PrivacyGoals goals;                 // ε₁=0.5, ε₂=2, ε₃=8, δ=1e-9
//   auto collector = core::ShuffleDpCollector::Create(
//       goals, /*n=*/users.size(), /*domain=*/915, /*shufflers=*/3);
//   auto result = collector->Collect(users, &secure_rng);   // full crypto
//   // or: collector->SimulateCollect(counts, n, &rng);     // fast stats
//
// Collect() executes the real protocol (secret sharing, Paillier, EOS);
// SimulateCollect() draws from the identical output distribution in O(d)
// (DESIGN.md §5) for utility studies.

#ifndef SHUFFLEDP_CORE_SHUFFLE_DP_H_
#define SHUFFLEDP_CORE_SHUFFLE_DP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/planner.h"
#include "crypto/secure_random.h"
#include "ldp/frequency_oracle.h"
#include "service/coordinator.h"
#include "service/streaming_collector.h"
#include "shuffle/peos.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace core {

/// High-level PEOS histogram collector.
class ShuffleDpCollector {
 public:
  /// Protocol knobs beyond the privacy plan.
  struct Options {
    uint32_t num_shufflers = 3;
    size_t paillier_bits = 1024;
    bool use_randomizer_pool = true;
    ThreadPool* pool = nullptr;
    /// Server-side streaming ingestion knobs (batch size, queue
    /// capacity, shard count); the pool field is ignored in favor of
    /// `pool` above.
    service::StreamingOptions streaming;
  };

  /// Plans parameters for (goals, n, d) and builds the collector.
  static Result<std::unique_ptr<ShuffleDpCollector>> Create(
      const PrivacyGoals& goals, uint64_t n, uint64_t domain_size,
      const Options& options);
  static Result<std::unique_ptr<ShuffleDpCollector>> Create(
      const PrivacyGoals& goals, uint64_t n, uint64_t domain_size) {
    return Create(goals, n, domain_size, Options{});
  }

  /// The chosen plan (for logging / EXPERIMENTS.md).
  const PeosPlan& plan() const { return plan_; }

  /// The configured frequency oracle.
  const ldp::ScalarFrequencyOracle& oracle() const { return *oracle_; }

  /// Runs the full cryptographic protocol over the users' true values.
  Result<shuffle::PeosResult> Collect(const std::vector<uint64_t>& values,
                                      crypto::SecureRandom* rng) const;

  /// Statistically-exact fast path: returns frequency estimates drawn
  /// from the same distribution as Collect()'s, given the true per-value
  /// counts.
  Result<std::vector<double>> SimulateCollect(
      const std::vector<uint64_t>& value_counts, uint64_t n,
      Rng* rng) const;

  /// Crypto-free streaming collection: encodes the users' reports in
  /// deterministic fixed-size chunks, streams them — plus the plan's n_r
  /// uniform ordinal fake reports — through a service::StreamingCollector
  /// in batches, and calibrates exactly like Collect's server side.
  /// Distribution-identical to SimulateCollect while exercising the real
  /// ingestion pipeline (queue, backpressure, domain-sharded counting),
  /// so utility studies run at n = 10^6+ without the crypto cost.
  Result<service::RoundResult> CollectStreaming(
      const std::vector<uint64_t>& values, Rng* rng) const;

  /// Networked variant of CollectStreaming: the same deterministic
  /// producer, but every batch fans out across a fleet of partitioned
  /// endpoints through `routing` (one kBatchIndexed frame per endpoint
  /// per producer batch — the slice of ordinals it owns), and the round
  /// closes through `coordinator`, which gathers raw per-partition
  /// supports, merges them in partition order, and calibrates the merged
  /// vector. Because integer supports compose losslessly and the
  /// calibration runs once over the merged population, the result is
  /// bitwise identical to single-node CollectStreaming under the same
  /// `rng` seed — for any partition count (a single remote endpoint is
  /// the 1-partition map) and either partition mode. Each endpoint's
  /// batch-index gate counts every batch exactly once, so recovery
  /// replays and a producer re-sending the round from batch 0 are
  /// absorbed by the endpoints, not tracked here.
  Result<service::RoundResult> CollectDistributed(
      const std::vector<uint64_t>& values, Rng* rng,
      service::PartitionRoutingClient* routing,
      service::MergeCoordinator* coordinator, uint64_t round_id) const;

 private:
  /// Shared producer of CollectStreaming/CollectDistributed: slices
  /// users + fake blanket into batch_size batches of packed ordinals
  /// (seeded per batch start index, so any batch replays bit-identically)
  /// and hands each to `sink`.
  Status StreamEncodedBatches(
      const std::vector<uint64_t>& values, Rng* rng,
      const std::function<Status(std::vector<uint64_t>&&)>& sink) const;
  ShuffleDpCollector(PeosPlan plan, uint64_t n, uint64_t domain_size,
                     Options options,
                     std::unique_ptr<ldp::ScalarFrequencyOracle> oracle)
      : plan_(plan),
        n_(n),
        domain_size_(domain_size),
        options_(options),
        oracle_(std::move(oracle)) {}

  PeosPlan plan_;
  uint64_t n_;
  uint64_t domain_size_;
  Options options_;
  std::unique_ptr<ldp::ScalarFrequencyOracle> oracle_;
};

}  // namespace core
}  // namespace shuffledp

#endif  // SHUFFLEDP_CORE_SHUFFLE_DP_H_
