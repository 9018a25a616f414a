// Domain-sharded support aggregation.
//
// The value domain [0, d) is partitioned into contiguous shards over one
// shared, contiguous counter vector; each shard owns the [lo, hi) slice
// of its value range. A batch of decoded reports is fanned out with one
// task per shard group — every task streams the batch through the
// oracle's bulk AccumulateSupports kernel restricted to its own slice,
// so accumulation is lock-free, race-free, and (being integer addition)
// independent of both task scheduling and report order. With no pool (or
// a single shard) the fan-out is skipped entirely and the tiled kernel
// runs once over the whole counted range — same O(batch × d) pair count,
// none of the per-shard batch re-walks or task overhead.
//
// Oracles whose support test is plain value equality (GRR — see
// ScalarFrequencyOracle::SupportIsValueEquality) skip everything: one
// histogram increment per report straight into the contiguous counts,
// turning the O(batch × d) aggregation into O(batch).
//
// The counts being one contiguous vector also gives the round-store
// delta capture a zero-copy view (counts()) to diff against, instead of
// materializing a merged snapshot per batch.

#ifndef SHUFFLEDP_SERVICE_SHARDED_COUNTER_H_
#define SHUFFLEDP_SERVICE_SHARDED_COUNTER_H_

#include <cstdint>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {

/// Per-shard partial support aggregates over the oracle's full domain —
/// or, for a partition-scoped worker, over one contiguous value slice
/// [lo, hi) of it (the shard fan-out then divides the slice instead).
class ShardedSupportCounter {
 public:
  /// Full-domain counter. `num_shards` = 0 picks min(64, domain_size).
  ShardedSupportCounter(const ldp::ScalarFrequencyOracle& oracle,
                        uint32_t num_shards);

  /// Slice-restricted counter over values [lo, hi): supports are counted
  /// (and Finalize/Restore sized) for that range only. Pre: lo < hi <=
  /// domain_size. `lo == hi == 0` means the full domain.
  ShardedSupportCounter(const ldp::ScalarFrequencyOracle& oracle,
                        uint32_t num_shards, uint64_t lo, uint64_t hi);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The counted value range (full domain unless slice-restricted).
  uint64_t range_lo() const { return range_lo_; }
  uint64_t range_hi() const { return range_hi_; }

  /// Adds one batch of reports into every shard's partial aggregate,
  /// one task per shard on `pool` (one bulk kernel pass over the whole
  /// range when `pool` is null). Not safe to call concurrently with
  /// itself — batches are accumulated one at a time by the collector's
  /// consumer.
  void AccumulateBatch(const std::vector<ldp::LdpReport>& reports,
                       ThreadPool* pool);

  /// Zero-copy view of the counts, indexed by value − range_lo() —
  /// already in deterministic merged order (shards are slices of this
  /// vector). Only valid to read between AccumulateBatch calls.
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Deterministic merge: a copy of counts() (length = range_hi() −
  /// range_lo()).
  std::vector<uint64_t> Finalize() const;

  /// Inverse of Finalize for crash recovery: restores a merged
  /// supports vector (length = counted range). The layout depends only
  /// on the counted range, so a snapshot taken by Finalize restores
  /// exactly (num_shards may even differ).
  Status Restore(const std::vector<uint64_t>& merged);

  /// Clears all partial aggregates (next collection round/window).
  void Reset();

 private:
  struct Shard {
    uint64_t lo = 0;  // first owned value
    uint64_t hi = 0;  // one past the last owned value
  };

  const ldp::ScalarFrequencyOracle& oracle_;
  bool value_equality_;
  uint64_t range_lo_ = 0;
  uint64_t range_hi_ = 0;
  std::vector<Shard> shards_;
  std::vector<uint64_t> counts_;  // contiguous, one slot per counted value
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_SHARDED_COUNTER_H_
