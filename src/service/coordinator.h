// Multi-endpoint collection: partition-routing client + merge-of-supports
// coordinator.
//
// A distributed round has two client-side roles:
//
//   PartitionRoutingClient  fans a producer's batches out to the owning
//       endpoints. Every producer batch yields exactly one kBatchIndexed
//       frame per endpoint — the frame carries the producer batch index
//       plus the subset of ordinals the endpoint owns (kByValue) or the
//       whole batch / nothing (kByClient round-robin) — so per-endpoint
//       batch indices always equal producer batch indices. That
//       alignment is what crash recovery replays against, and what
//       makes the endpoint's batch-index gate the one exactly-once
//       mechanism: an endpoint accepts each index once, drops a stale
//       index as a duplicate and rejects a skipped one as a lost batch.
//       So a recovery replay may race stragglers the replaced
//       connection still delivers, and a restarted producer may simply
//       re-send the round from batch 0; every endpoint drops what it
//       already consumed (CollectionServer::stats().batches_deduped)
//       and nothing is double-counted.
//
//   MergeCoordinator  closes the round: it sends kFinish with
//       Calibration::kNone to every endpoint (pipelined — all sends
//       first, then reads in partition order), collects the raw
//       per-partition supports, tallies, and dummy accounting, performs
//       the deterministic merge-of-supports in partition order
//       (PartitionMap::MergeSupports), and only then calibrates.
//
// Merge before calibrate is a correctness requirement, not a
// convenience: the estimator's de-bias and the shuffle-DP amplification
// analysis are both properties of the *whole* population of n + n_r
// reports (Wang et al.), and integer support counts are the only
// aggregate that composes losslessly across partitions. Averaging
// per-node estimates would weight partitions wrongly the moment their
// loads differ — and could never be bitwise-identical to the
// single-node path, which is the bar the distributed e2e test pins.

#ifndef SHUFFLEDP_SERVICE_COORDINATOR_H_
#define SHUFFLEDP_SERVICE_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "service/partition.h"
#include "service/partition_worker.h"
#include "service/retry.h"
#include "service/transport.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

/// One collection endpoint's address (loopback/IPv4, see
/// CollectorClient::Connect).
struct EndpointAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Fault-tolerance knobs for the fleet client tier.
struct RoutingOptions {
  /// Per-operation deadlines on every endpoint connection.
  CollectorClientOptions client;
  /// Retry budget for the automatic reconnect → handshake → watermark →
  /// replay recovery dance (per failure event, per partition).
  RetryPolicy retry;
};

/// Per-partition liveness/outcome of one round's fleet I/O (ISSUE:
/// "attempts, last errno, watermark at death"). `attempts` counts
/// connection attempts spent on recovery for this partition this round;
/// `recoveries` successful recovery dances; `watermark_at_death` the
/// last consumed-batch watermark learned before giving up (0 when the
/// endpoint was never reachable again). `connection_drops` counts
/// established connections lost mid-round — each drop is the client
/// face of a server-side event (an idle/slow/overflow eviction, a
/// reset, an endpoint restart) and each one started a recovery dance,
/// so an operator reading RoundHealth sees evictions as drops even
/// when recovery ultimately succeeded.
struct PartitionHealth {
  uint32_t partition = 0;
  bool healthy = true;
  uint64_t attempts = 0;
  uint64_t recoveries = 0;
  uint64_t connection_drops = 0;
  uint64_t watermark_at_death = 0;
  Status last_error = Status::OK();

  std::string ToString() const;
};

/// The per-partition health report a failed (or recovered) round
/// returns instead of a bare error.
struct RoundHealth {
  uint64_t round_id = 0;
  std::vector<PartitionHealth> partitions;

  bool all_healthy() const;
  /// "round 3: p0 ok (1 recovery), p1 DEAD after 4 attempts ..." —
  /// embedded in the failure Status message so even callers that only
  /// see the Status learn which partition died and why.
  std::string ToString() const;
};

/// Client-side fan-out: one handshaken connection per partition.
/// Synchronous and single-threaded like CollectorClient; a producer
/// streams batches through SendBatch and the coordinator closes the
/// round over the same connections (per-connection FIFO makes every
/// batch precede the finish without any extra barrier).
class PartitionRoutingClient {
 public:
  /// Dials endpoints[p] for partition p (one per map partition) and
  /// performs the kHello handshake on each — a misconfigured endpoint
  /// (different layout, different owned partition) fails here, before
  /// any data flows. `options` sets the per-connection deadlines and the
  /// automatic-recovery budget for the fleet.
  static Result<std::unique_ptr<PartitionRoutingClient>> Connect(
      const ldp::ScalarFrequencyOracle& oracle, const PartitionMap& map,
      const std::vector<EndpointAddress>& endpoints,
      const RoutingOptions& options = RoutingOptions());

  const PartitionMap& map() const { return map_; }
  uint32_t partitions() const { return map_.partitions(); }
  const RoutingOptions& options() const { return options_; }

  /// The round endpoint `p` reported at handshake / reconnect.
  uint64_t round_id(uint32_t p) const { return round_ids_[p]; }

  /// Raw per-partition connection (round control, watermark queries).
  CollectorClient* client(uint32_t p) { return clients_[p].get(); }

  /// Routes producer batch `batch_index` and ships one frame per
  /// endpoint (ordinals it owns; possibly empty). A batch an endpoint
  /// already consumed is dropped there by its batch-index gate.
  ///
  /// A retryable transport failure (peer reset, refused reconnect,
  /// deadline) triggers the recovery dance for that partition —
  /// reconnect with backoff, re-handshake, query the endpoint's
  /// consumed-batch watermark, replay the round's unconsumed suffix from
  /// the replay log — transparently, bounded by the retry budget. Only
  /// budget exhaustion (or a fatal error: CRC mismatch, version skew,
  /// partition mismatch) surfaces to the caller.
  Status SendBatch(uint64_t round_id, uint64_t batch_index,
                   const std::vector<uint64_t>& ordinals);

  /// Consumed-batch watermark of endpoint `p` (see
  /// CollectorClient::QueryWatermark; also a flush barrier for this
  /// connection).
  Result<uint64_t> QueryWatermark(uint32_t p,
                                  uint64_t* round_id_out = nullptr);

  /// Runs the bounded recovery dance for partition `p` right now:
  /// backoff → reconnect → kHello handshake → QueryWatermark → replay
  /// the replay-log suffix [watermark, replay_until) for `round_id`.
  /// `replay_until` is the producer batch index the round has reached
  /// (exclusive). The watermark may lag what the endpoint ultimately
  /// ingests from the replaced connection's kernel buffers; replayed
  /// batches that duplicate such stragglers are dropped by the
  /// endpoint's batch-index gate, so over-replaying is safe. Health
  /// accounting (attempts, recoveries, last error, watermark at death)
  /// accumulates into this round's PartitionHealth.
  /// Public so the coordinator (and tests) can drive it; SendBatch and
  /// FinishRound call it on every retryable failure.
  Status RecoverPartition(uint32_t p, uint64_t round_id,
                          uint64_t replay_until);

  /// Health accumulated for partition `p` since the last round change.
  const PartitionHealth& health(uint32_t p) const { return health_[p]; }
  /// Snapshot of all partitions' health for `round_id`.
  RoundHealth SnapshotHealth(uint64_t round_id) const;
  /// Clears the replay log and health records (a new round started).
  void ResetRoundState(uint64_t round_id);

 private:
  /// One routed frame the endpoint must have consumed for the round to
  /// close — what RecoverPartition replays above the watermark. The
  /// frame is the finished wire bytes (EncodeRoutedBatch), sent verbatim
  /// the first time and on every replay.
  struct LoggedBatch {
    uint64_t batch_index = 0;
    Bytes frame;
  };

  PartitionRoutingClient(const ldp::ScalarFrequencyOracle& oracle,
                         PartitionMap map,
                         std::vector<EndpointAddress> endpoints,
                         RoutingOptions options)
      : oracle_(oracle),
        map_(std::move(map)),
        endpoints_(std::move(endpoints)),
        options_(std::move(options)) {}

  /// Re-dials and re-handshakes one endpoint (at Connect and in each
  /// recovery attempt); the other connections are left untouched.
  Status ReconnectPartition(uint32_t p);
  /// Sends one logged frame to partition `p` without recovery.
  Status SendRoutedBatch(uint32_t p, const Bytes& frame);

  const ldp::ScalarFrequencyOracle& oracle_;
  PartitionMap map_;
  std::vector<EndpointAddress> endpoints_;
  RoutingOptions options_;
  std::vector<std::unique_ptr<CollectorClient>> clients_;
  std::vector<uint64_t> round_ids_;
  /// Per-partition routed-frame log for the current round (W bytes per
  /// routed ordinal plus the frame's ~28-byte header and varints);
  /// cleared when the round id changes (ResetRoundState).
  std::vector<std::vector<LoggedBatch>> replay_log_;
  std::vector<PartitionHealth> health_;
  uint64_t logged_round_ = 0;
  bool round_state_valid_ = false;
};

/// Round-close coordinator: collect raw per-partition results, merge in
/// partition order, calibrate once over the merged supports.
class MergeCoordinator {
 public:
  /// Borrows `client` (not owned); one coordinator per routing client.
  MergeCoordinator(const ldp::ScalarFrequencyOracle& oracle,
                   PartitionRoutingClient* client)
      : oracle_(oracle), client_(client) {}

  /// Closes `round_id` on every endpoint and returns the merged,
  /// calibrated round result. `calibration` is applied *after* the merge
  /// (endpoints always close with Calibration::kNone); kNone returns the
  /// merged raw supports. Tallies and dummy accounting sum across
  /// partitions; the spot check passes only if every partition's does.
  /// The merged stats keep only the row/batch totals — per-endpoint
  /// timing lives on the endpoints.
  ///
  /// A retryable failure while closing any partition (send, read, or a
  /// connection that died between the last batch and the finish)
  /// triggers the same recovery dance as SendBatch, then re-sends
  /// kFinish — the endpoint serves a re-finish for an already-closed
  /// round from its result stash, so a coordinator that crashed mid-read
  /// still converges. On budget
  /// exhaustion the round fails cleanly: the error message embeds the
  /// RoundHealth report and last_round_health() returns it structured.
  Result<RoundResult> FinishRound(uint64_t round_id, uint64_t n,
                                  uint64_t n_fake, Calibration calibration);

  /// Health report of the most recent FinishRound call (success or
  /// failure) — which partitions recovered, which died, attempts spent,
  /// and the watermark each dead endpoint had reached.
  const RoundHealth& last_round_health() const { return last_health_; }

 private:
  const ldp::ScalarFrequencyOracle& oracle_;
  PartitionRoutingClient* client_;
  RoundHealth last_health_;
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_COORDINATOR_H_
