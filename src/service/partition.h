// Partition-aware collection: the value-domain / client partitioning
// shared by clients, endpoints, and the merge coordinator.
//
// The shuffler-side aggregates of both protocols are per-value integer
// tallies — associative and order-independent — so a single collector
// scales out by partitioning the work across endpoint instances and
// merging supports deterministically afterwards. A PartitionMap is the
// contract every party agrees on:
//
//   kByValue   the ordinal space is cut into contiguous value ranges
//              (the same floor(d·p/P) formula ShardedSupportCounter
//              uses); endpoint p owns values [lo_p, hi_p) and counts
//              supports only over its slice. Requires an oracle whose
//              support test is value equality (GRR): a report touches
//              exactly one partition's counters. Merge = concatenate
//              the P slices in partition order.
//   kByClient  whole producer batches are assigned round-robin
//              (batch_index mod P); every endpoint counts supports over
//              the full domain from its subset of clients. Works for
//              every oracle (SOLH reports support values across the
//              whole domain, so value ranges cannot route them).
//              Merge = element-wise sum in partition order.
//
// Either way the merged supports equal the single-node supports over the
// union multiset of reports — integer addition commutes — which is why
// the coordinator can demand bitwise identity with the single-node path.
// Calibration/estimation runs only *after* the merge: the privacy
// guarantee (and the unbiased estimator) is a property of the whole
// shuffled population, not of any one partition (Wang et al.'s unified
// amplification analysis), so averaging per-node estimates would be both
// statistically and semantically wrong.
//
// The map travels in the kHello handshake frame (transport.h) so an
// endpoint can reject clients configured with a different layout, and
// every data frame carries its target partition id in the header — a
// batch for a partition the endpoint does not own is a protocol
// violation, not a silent miscount.

#ifndef SHUFFLEDP_SERVICE_PARTITION_H_
#define SHUFFLEDP_SERVICE_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

enum class PartitionMode : uint8_t {
  kByValue = 0,   ///< contiguous ordinal-value ranges (value-equality oracles)
  kByClient = 1,  ///< round-robin batch assignment, full-domain counters
};

/// The domain slice one partition worker owns. `lo == hi == 0` means the
/// full domain (the single-node default).
struct PartitionSlice {
  uint32_t index = 0;  ///< partition id in [0, count)
  uint32_t count = 1;  ///< total partitions
  uint64_t lo = 0;     ///< first owned value (kByValue); 0 otherwise
  uint64_t hi = 0;     ///< one past the last owned value; 0 = full domain

  bool full_domain() const { return lo == 0 && hi == 0; }
  /// This slice with a full domain resolved to [0, domain_size).
  PartitionSlice Resolved(uint64_t domain_size) const {
    PartitionSlice slice = *this;
    if (slice.full_domain()) slice.hi = domain_size;
    return slice;
  }
};

/// The partition layout every party must agree on. Immutable value type;
/// compare with == before trusting a peer's frames.
class PartitionMap {
 public:
  /// Single-node layout: one partition owning everything.
  PartitionMap() = default;

  /// Splits `oracle`'s collection across `partitions` endpoints.
  /// kByValue requires oracle.SupportIsValueEquality() (the routing
  /// invariant "a report touches one partition" fails otherwise — use
  /// kByClient for SOLH and friends).
  static Result<PartitionMap> Create(const ldp::ScalarFrequencyOracle& oracle,
                                     PartitionMode mode, uint32_t partitions);

  PartitionMode mode() const { return mode_; }
  uint32_t partitions() const { return partitions_; }
  uint64_t domain_size() const { return domain_size_; }
  unsigned packed_bits() const { return packed_bits_; }

  /// The slice partition `p` owns: kByValue gives [floor(d·p/P),
  /// floor(d·(p+1)/P)); kByClient gives the full domain.
  PartitionSlice SliceOf(uint32_t p) const;

  /// Owner of a packed ordinal (kByValue maps). Real values route to
  /// their range owner; padding-region ordinals (>= d) route to
  /// `ordinal mod P` so the fake blanket spreads deterministically and
  /// every ordinal has exactly one home. The range owner is a
  /// division-free lower bound over the P − 1 slice upper bounds. Inline:
  /// the routed frame encoder and the endpoint's admission check call it
  /// once per ordinal.
  uint32_t OwnerOfOrdinal(uint64_t ordinal) const;

  /// The admission check of the endpoint owning partition `p`: under
  /// kByValue with P > 1, ProtocolViolation naming the first ordinal
  /// another partition owns; OK otherwise (every ordinal is admitted).
  Status AdmitOrdinals(uint32_t p, const std::vector<uint64_t>& ordinals) const;

  /// Owner of producer batch `batch_index` (kByClient maps).
  uint32_t OwnerOfBatch(uint64_t batch_index) const;

  /// Splits one producer batch into `partitions()` per-endpoint ordinal
  /// groups, order-preserving: kByValue scatters by OwnerOfOrdinal,
  /// kByClient hands the whole batch to OwnerOfBatch(batch_index) and
  /// leaves the other groups empty. Every endpoint receives a (possibly
  /// empty) group for every producer batch, so per-endpoint batch
  /// indices stay equal to producer batch indices — the alignment crash
  /// recovery replays against. Each group is allocated at its exact size.
  /// The routing client builds its frames with EncodeRoutedBatch
  /// (transport.h), which routes the same way without materializing the
  /// groups; Route stays as the reference the partition tests check that
  /// encoder against.
  std::vector<std::vector<uint64_t>> Route(
      uint64_t batch_index, const std::vector<uint64_t>& ordinals) const;

  /// Deterministic merge-of-supports in partition order: kByValue
  /// concatenates the slices, kByClient sums element-wise. Fails when a
  /// part's length does not match its slice.
  Result<std::vector<uint64_t>> MergeSupports(
      const std::vector<std::vector<uint64_t>>& parts) const;

  bool operator==(const PartitionMap& o) const {
    return mode_ == o.mode_ && partitions_ == o.partitions_ &&
           domain_size_ == o.domain_size_ && packed_bits_ == o.packed_bits_;
  }
  bool operator!=(const PartitionMap& o) const { return !(*this == o); }

  std::string ToString() const;

 private:
  /// Fills the owner lookup below from the four layout fields.
  void BuildOwnerIndex();

  PartitionMode mode_ = PartitionMode::kByValue;
  uint32_t partitions_ = 1;
  uint64_t domain_size_ = 0;  ///< 0 = unbound single-node default
  unsigned packed_bits_ = 0;
  // Derived owner lookup: ordinals below range_limit_ (d under kByValue
  // with P > 1, else 0) go to the number of slice_bounds_ (the upper
  // bounds of slices 0..P−2) at or below them.
  uint64_t range_limit_ = 0;
  std::vector<uint64_t> slice_bounds_;

  friend Bytes SerializePartitionMap(const PartitionMap& map);
  friend Result<PartitionMap> ParsePartitionMap(ByteReader* r);
};

inline uint32_t PartitionMap::OwnerOfOrdinal(uint64_t ordinal) const {
  if (ordinal < range_limit_) {
    // Branchless lower bound: the owner is the number of slice upper
    // bounds at or below the ordinal. The bound count halves each step
    // and the select compiles to a conditional move, so the lookup costs
    // ceil(log2(P − 1)) compares and no division.
    const uint64_t* base = slice_bounds_.data();
    size_t n = slice_bounds_.size();
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= ordinal ? base + half : base;
      n -= half;
    }
    return static_cast<uint32_t>(base - slice_bounds_.data()) +
           (*base <= ordinal ? 1 : 0);
  }
  // Padding-region ordinals (and every ordinal under kByClient routing —
  // though kByClient batches route whole) spread by residue.
  return partitions_ <= 1 ? 0
                          : static_cast<uint32_t>(ordinal % partitions_);
}

/// kHello payload codec: u8 mode, varint partitions, varint domain size,
/// u8 packed bits (spec in docs/WIRE_FORMAT.md §2). The reader overload
/// leaves trailing payload bytes (the handshake's partition id) unread.
Bytes SerializePartitionMap(const PartitionMap& map);
Result<PartitionMap> ParsePartitionMap(ByteReader* r);
Result<PartitionMap> ParsePartitionMap(const Bytes& payload);

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_PARTITION_H_
