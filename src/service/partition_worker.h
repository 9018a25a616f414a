// Partition-scoped ingest/persist/drain worker — the machinery behind
// the streaming collection service.
//
// A PartitionWorker owns one slice of a collection round (partition.h):
// the single-node StreamingCollector is the 1-of-1 full-domain special
// case, and a distributed deployment runs N workers — in one process or
// one per endpoint — each with its own queue, consumer thread, counters
// over its slice, a per-partition round store, and per-partition
// spot-check dummy multiset. Raw per-partition supports flow to a
// MergeCoordinator (coordinator.h), which merges in partition order and
// only then calibrates — estimates are a property of the whole shuffled
// population, never of one slice.
//
// The pipeline (unchanged from the pre-partition StreamingCollector):
//
//   producers ──ReportBatch──▶ BoundedQueue ──▶ consumer thread
//                (backpressure)                   │ decode batch   (pool)
//                                                 │ validate + strip dummies
//                                                 ▼ count supports (pool,
//                                                   domain-sharded)
//
// Producers enqueue fixed-size batches of reports and block when the
// bounded queue fills (backpressure). A dedicated consumer drains batches
// in FIFO order; for each batch it fans the per-report decode step
// (ECIES peel, Paillier share reconstruction, …) out across the
// ThreadPool, then fans support counting out across domain shards
// (sharded_counter.h). Cleartext ordinal batches skip the decode
// fan-out: one pass unpacks, validates and strips dummies, then counting
// runs. Because every aggregate is an integer counter and shard slices
// merge in shard order, the finalized supports — and hence the
// estimates — are bitwise identical for any pool size, including no
// pool at all. Spot-check dummies (sequential shuffle §VI-A1) are
// registered up front and stripped before counting.
//
// Rounds are pipelined: CloseRound() enqueues a round-close sentinel and
// returns a future immediately, so producers start offering round k+1
// batches while round k's tail is still decoding. At the sentinel the
// consumer swaps to the second of two double-buffered
// ShardedSupportCounters and hands the drained one to a finalize/
// calibrate task, so even the merge of round k overlaps round k+1
// ingest. FinishRound() is the synchronous wrapper (close + wait).
//
// Crash safety: round persistence goes through a RoundStore
// (round_store.h). With StreamingOptions::round_store.dir set, the
// consumer appends incremental delta records to a per-worker WAL,
// periodically compacted into immutable segment files — any number of
// rounds (finalized history + the live one) recover together.
//
// Group commit: the consumer does not write one record per batch. Each
// processed batch folds its tally deltas and consumed spot-check dummies
// into an open group covering batches [batch_lo, batch_hi); when the
// group closes, its sparse support delta is one diff of the counter's
// counts against a shadow of what the store has seen — for every oracle,
// GRR's one-value supports included. The group is written as one
// fsynced RoundDelta when
//   - the queue is empty after a batch (the consumer never blocks in
//     Pop with an unsynced group),
//   - a non-batch item (dummy registration, round close) is next, or
//   - it reaches queue_capacity batches.
// So a backed-up queue costs one fsync per drained run instead of one
// per batch, and an idle one still syncs every batch. The durability
// contract is unchanged: a batch counts toward the durable watermark
// only once the record covering it is fsynced, and batches still in the
// queue (or in the open group) are replayed by the feeder after a crash.
// RecoverRound() restores a stored mid-round state and returns the
// consumed-batch watermark (the feeder replays from there,
// bit-identically), and RecoverFinalizedRound() replays a stored journal
// through the deterministic finalize/calibrate step.
//
// Storage failure taxonomy: an out-of-space write (kResourceExhausted —
// ENOSPC/EDQUOT) does *not* poison the round. The worker degrades to
// in-memory-only for the rest of the round and reports it via
// RoundResult::durability_degraded — operators asked for the data more
// than for the durability of one round. Every other storage error stays
// a hard round failure.

#ifndef SHUFFLEDP_SERVICE_PARTITION_WORKER_H_
#define SHUFFLEDP_SERVICE_PARTITION_WORKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "service/bounded_queue.h"
#include "service/partition.h"
#include "service/round_store.h"
#include "service/sharded_counter.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace shuffledp {
namespace service {

/// One decoded ingestion row. `valid = false` rows (failed share
/// reconstruction, ordinal padding, …) are dropped and counted, matching
/// the protocols' treatment of malformed reports.
struct DecodedRow {
  bool valid = false;
  ldp::LdpReport report;
  uint64_t tag = 0;  ///< payload tag (spot-check matching); 0 when unused
};

/// A batch of reports flowing through the queue, in one of two shapes:
///   - decoded: `decode` is invoked for i in [0, count) from pool workers
///     (concurrently, each index once); it owns whatever per-batch data
///     it needs via its captures. A non-OK result is a hard protocol
///     failure that aborts the round.
///   - ordinal (`decode` empty): `ordinals` holds `count` packed
///     ordinals, unpacked, validated and counted in one serial pass on
///     the consumer; padding ordinals are dropped as invalid rows and
///     every row carries tag 0 for spot-check matching.
struct ReportBatch {
  uint64_t count = 0;
  std::vector<uint64_t> ordinals;
  /// Optional batch-level stage run once on the consumer thread before
  /// the per-row decode fan-out — e.g. the PEOS packed Paillier
  /// decryption, which amortizes one CRT decryption over a whole group
  /// of rows. Receives the fan-out pool (null = serial); its time counts
  /// toward busy_seconds. A non-OK status aborts the round like a decode
  /// failure.
  std::function<Status(ThreadPool* pool)> prepare;
  std::function<Result<DecodedRow>(uint64_t i)> decode;
};

/// Builds a decode-free batch from already-decoded reports.
ReportBatch MakePlainBatch(std::vector<ldp::LdpReport> reports);

/// Builds an ordinal batch from packed ordinals (the wire batches and
/// the PEOS ordinal stream).
ReportBatch MakeOrdinalBatch(std::vector<uint64_t> ordinals);

/// Which estimator calibration the round close applies. Partition
/// workers behind a coordinator use kNone: raw supports cross to the
/// coordinator, which merges all partitions *before* calibrating.
enum class Calibration : uint8_t {
  kStandard = 0,  ///< uniform fake reports at q_fake (sequential shuffle)
  kOrdinal = 1,   ///< uniform Z_{2^B} fakes at OrdinalFakeSupportProb (PEOS)
  kNone = 2,      ///< raw supports only (merge-before-calibrate workers)
};

/// Pipeline knobs.
struct StreamingOptions {
  size_t batch_size = 4096;     ///< reports per batch (producer helpers)
  /// Buffered batches before backpressure; also the most batches one
  /// group-commit WAL record covers.
  size_t queue_capacity = 64;
  uint32_t num_shards = 0;      ///< domain shards; 0 = min(64, slice width)
  ThreadPool* pool = nullptr;   ///< decode/count fan-out; null = serial
  /// The domain slice this worker owns (default: full domain, 1-of-1).
  PartitionSlice partition;
  /// Durable round store (round_store.h): `round_store.dir` non-empty
  /// enables the WAL + segment engine. Slice identity fields are filled
  /// from the worker's resolved partition.
  RoundStoreOptions round_store;
  /// Pre-opened store (wins over the options above). The transport
  /// server shares its store with the worker through this — a WAL must
  /// have exactly one writer handle.
  std::shared_ptr<RoundStore> store;
};

/// Pipeline health/throughput counters for one round.
struct StreamingStats {
  uint64_t batches = 0;
  uint64_t rows = 0;                 ///< rows offered (incl. invalid/dummy)
  uint64_t rows_aggregated = 0;      ///< rows that reached support counting
  uint64_t backpressure_waits = 0;   ///< producer pushes that blocked
  uint64_t queue_high_water = 0;     ///< deepest buffered batch count
  double busy_seconds = 0.0;         ///< consumer time decoding + counting
  double decode_seconds = 0.0;       ///< prepare + decode fan-out + validate
  double support_eval_seconds = 0.0; ///< support accumulation (kernel) time
  double wall_seconds = 0.0;         ///< round open -> close sentinel drained
  double rows_per_second = 0.0;      ///< rows / wall_seconds

  std::string ToString() const;
};

/// Result of one collection round (one partition's slice of it when the
/// worker is partition-scoped; `estimates` is empty under kNone).
struct RoundResult {
  std::vector<uint64_t> supports;   ///< per-value counts over the slice
  std::vector<double> estimates;    ///< calibrated frequencies (not kNone)
  uint64_t reports_decoded = 0;     ///< valid rows counted (dummies excl.)
  uint64_t reports_invalid = 0;     ///< dropped rows
  uint64_t dummies_recognized = 0;  ///< spot-check dummies stripped
  uint64_t dummies_expected = 0;    ///< spot-check dummies registered
  bool spot_check_passed = true;    ///< every expected dummy arrived
  /// The round finished in memory but its durability was downgraded
  /// mid-round by an out-of-space store (kResourceExhausted): the result
  /// is correct, but a crash before the coordinator read it would have
  /// lost the round. `durability_warning` carries the triggering error.
  bool durability_degraded = false;
  std::string durability_warning;
  StreamingStats stats;
};

/// Sharded streaming ingest worker; one instance per partition (or per
/// single-node collection endpoint via the StreamingCollector facade).
///
/// Thread-safety: Offer*/ExpectDummy/CloseRound may be called from any
/// thread *except* workers of `options.pool` (a blocked producer on a
/// pool worker could starve the consumer's decode tasks and deadlock the
/// pipeline). A worker *constructed* on a pool worker — a protocol run
/// nested inside a pool task — detects this and degrades to serial
/// processing. ExpectDummy must precede the rows it matches; it applies
/// to the round being fed at the time it is called (registrations travel
/// through the queue, so they order with batches and round closes).
class PartitionWorker {
 public:
  PartitionWorker(const ldp::ScalarFrequencyOracle& oracle,
                  StreamingOptions options);
  ~PartitionWorker();

  PartitionWorker(const PartitionWorker&) = delete;
  PartitionWorker& operator=(const PartitionWorker&) = delete;

  /// Registers a server-planted spot-check dummy; matching rows are
  /// stripped before estimation and counted in dummies_recognized.
  void ExpectDummy(const ldp::LdpReport& report, uint64_t tag);

  /// Bulk ExpectDummy: registers every (report, tag) pair with a single
  /// queue operation — the SS server plants hundreds of dummies per
  /// round, and one WorkItem beats one queue push (mutex + condvar +
  /// possible backpressure wait) per dummy.
  void ExpectDummies(
      const std::vector<std::pair<ldp::LdpReport, uint64_t>>& dummies);

  /// Enqueues one batch; blocks under backpressure. Fails once a decode
  /// error aborted the pipeline.
  Status Offer(ReportBatch batch);

  /// Splits pre-decoded reports into batch_size batches and offers them.
  Status OfferReports(const std::vector<ldp::LdpReport>& reports);

  /// Slices rows [0, total) into batch_size batches and offers each.
  /// Each batch first runs `prepare(lo, hi, pool)` once on the consumer
  /// thread (absolute row range [lo, hi); the pool is the decode fan-out
  /// pool, null = serial) before its rows decode — the hook for
  /// batch-level crypto such as packed AHE decryption. `decode` receives
  /// the absolute row index and must be safe to call concurrently (it is
  /// shared across the batches' pool tasks).
  Status OfferIndexedPrepared(
      uint64_t total,
      std::function<Status(uint64_t lo, uint64_t hi, ThreadPool* pool)>
          prepare,
      std::function<Result<DecodedRow>(uint64_t row)> decode);

  /// Closes the current round *asynchronously*: enqueues a round-close
  /// sentinel behind everything offered so far and returns a future that
  /// resolves once the round's batches have drained and its counter has
  /// been finalized and calibrated (n users, n_fake fake reports).
  /// Batches offered after CloseRound belong to the next round and start
  /// decoding while the previous round drains. After a failed round,
  /// call FinishRound (or destroy the worker) to reset the pipeline
  /// before reusing it.
  std::future<Result<RoundResult>> CloseRound(uint64_t n, uint64_t n_fake,
                                              Calibration calibration);

  /// Synchronous CloseRound: blocks until the round result is ready and
  /// resets the pipeline after a failure, ready for the next round.
  Result<RoundResult> FinishRound(uint64_t n, uint64_t n_fake,
                                  Calibration calibration);

  /// Restores a partially drained round from its stored mid-round state.
  /// Precondition: a fresh worker (nothing offered yet); fails with
  /// FailedPrecondition otherwise, with InvalidArgument when the
  /// state's supports do not match the owned slice, and with
  /// FailedPrecondition when the state belongs to a different
  /// partition. Returns the consumed-batch watermark: the feeder must
  /// replay batches from that batch index (batch boundaries must match
  /// the original run, which fixed-size batch slicing guarantees).
  Result<uint64_t> RecoverRound(const CheckpointState& state);

  /// Replays a finalized-round journal (the crash-between-close-and-read
  /// window): re-runs the deterministic finalize/calibrate step over the
  /// journaled supports and returns the bitwise-identical RoundResult.
  /// Advances round_id past the journaled round. Same fresh-worker
  /// precondition as RecoverRound; the two compose (round k+1's live
  /// state may be recovered after replaying round k's journal).
  Result<RoundResult> RecoverFinalizedRound(const RoundJournal& journal);

  /// Rebuilds a clean pipeline after a failed round (a CloseRound future
  /// that resolved to an error): joins the drained consumer, resets all
  /// counters and tallies, bumps the round id, and reopens the queue.
  /// FinishRound calls this automatically; CloseRound users (e.g. the
  /// transport endpoint) call it before reusing the worker.
  void ResetAfterError();

  /// Id of the round currently being fed (increments at each CloseRound
  /// sentinel; RecoverRound restores it).
  uint64_t round_id() const {
    return round_id_.load(std::memory_order_relaxed);
  }

  /// The owned slice with lo/hi resolved against the oracle's domain.
  const PartitionSlice& partition() const { return slice_; }

  /// True once the *current* round's durability was downgraded by an
  /// out-of-space store (cleared at each round boundary). Safe from any
  /// thread — the kQuery handler reads it live.
  bool durability_degraded() const {
    return degraded_flag_.load(std::memory_order_relaxed);
  }

  /// The round store backing this worker (null when persistence is off).
  const std::shared_ptr<RoundStore>& store() const { return store_; }

  const StreamingOptions& options() const { return options_; }
  const ldp::ScalarFrequencyOracle& oracle() const { return oracle_; }

 private:
  /// Round-close request traveling through the queue as a sentinel.
  struct RoundClose {
    uint64_t n = 0;
    uint64_t n_fake = 0;
    Calibration calibration = Calibration::kStandard;
    std::promise<Result<RoundResult>> promise;
  };

  /// One queue element: a batch, a round-close sentinel, or a spot-check
  /// dummy registration (routing registrations through the queue keeps
  /// them ordered against batches and round boundaries).
  struct WorkItem {
    ReportBatch batch;
    std::shared_ptr<RoundClose> close;
    std::vector<std::pair<uint64_t, uint64_t>> dummies;  ///< (packed, tag)
  };

  void ConsumerLoop();
  void ProcessBatch(const ReportBatch& batch);
  /// Validates one decoded row, strips it when it matches a registered
  /// spot-check dummy, and otherwise appends it to kept_. Returns false
  /// for an invalid row.
  bool KeepRow(const ldp::LdpReport& report, uint64_t tag, bool fold);
  /// Writes the open group (if any) as one RoundDelta and starts a new
  /// one. A failed round's group is dropped: the round is abandoned.
  void FlushGroup();
  void ProcessRoundClose(const std::shared_ptr<RoundClose>& close);
  void ResetRoundTallies();
  void EnsureConsumer();
  /// Routes a batch-group delta to the store, downgrading durability on
  /// kResourceExhausted and failing the round on anything else. Returns
  /// false when the round was failed (the caller must stop).
  bool PersistDelta(const RoundDelta& delta);
  void DegradeDurability(const Status& status);
  void FailRound(Status status);
  Status PipelineError() const;  // status_mu_-guarded snapshot

  const ldp::ScalarFrequencyOracle& oracle_;
  StreamingOptions options_;
  PartitionSlice slice_;  // lo/hi resolved (full domain -> [0, d))
  BoundedQueue<WorkItem> queue_;
  std::mutex consumer_mu_;  // guards the lazy consumer spawn
  std::thread consumer_;

  // Consumer-owned state (the single consumer thread writes; other
  // threads read only after joining it, except the atomic round id).
  std::unique_ptr<ShardedSupportCounter> counter_;        // active round
  std::unique_ptr<ShardedSupportCounter> drain_counter_;  // back buffer
  std::future<void> drain_done_;  // pending finalize of the previous round
  std::atomic<uint64_t> round_id_{0};
  uint64_t rows_seen_ = 0;
  uint64_t batches_seen_ = 0;
  uint64_t reports_decoded_ = 0;
  uint64_t reports_invalid_ = 0;
  uint64_t dummies_recognized_ = 0;
  uint64_t rows_aggregated_ = 0;
  double busy_seconds_ = 0.0;
  double decode_seconds_ = 0.0;
  double support_eval_seconds_ = 0.0;
  // The pipeline failure status. The consumer reads it freely (it is
  // the only live writer, via FailRound); producers read it after a
  // failed Push and ResetAfterError rewrites it after joining the
  // consumer, so those cross-thread accesses go through status_mu_.
  mutable std::mutex status_mu_;
  Status round_status_ = Status::OK();

  uint64_t dummies_expected_ = 0;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dummy_multiset_;
  WallTimer round_timer_;
  uint64_t waits_at_round_start_ = 0;

  // Durable round store plumbing. store_ is set once in the constructor;
  // the degrade fields are consumer-owned with an atomic mirror for the
  // kQuery handler.
  std::shared_ptr<RoundStore> store_;
  bool durability_degraded_ = false;
  std::string durability_warning_;
  std::atomic<bool> degraded_flag_{false};
  /// Shadow of the supports the store has seen (with a store only):
  /// each group's sparse delta is the diff of the counter's counts
  /// against it.
  std::vector<uint64_t> persisted_supports_;
  // The open group-commit group (with a store only): tallies and batch
  // range in group_, consumed dummies folded across its batches.
  uint64_t group_batches_ = 0;
  RoundDelta group_;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> group_dummies_;
  // The current batch's rows that reach support counting (reused).
  std::vector<ldp::LdpReport> kept_;
};

/// Finalize/calibrate step shared by the live drain path, journal
/// replay, and the merge coordinator: turns finalized supports + tallies
/// into a RoundResult. Deterministic pure function — the reason journal
/// replay and merge-then-calibrate reproduce live results bitwise.
RoundResult FinalizeRoundResult(const ldp::ScalarFrequencyOracle& oracle,
                                std::vector<uint64_t> supports,
                                uint64_t n, uint64_t n_fake,
                                Calibration calibration,
                                uint64_t reports_decoded,
                                uint64_t reports_invalid,
                                uint64_t dummies_recognized,
                                uint64_t dummies_expected);

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_PARTITION_WORKER_H_
