// Durable multi-round storage engine for partition workers.
//
// The RoundStore interface is a crash-consistent engine sized for many
// concurrent rounds:
//
//   ingest      consumer thread appends one incremental RoundDelta per
//               group of batches to a per-worker WAL (wal.h) — sparse
//               slice deltas + tally deltas + dummy-multiset deltas,
//               never more than O(slice) bytes — and fsyncs every
//               record before its batches count toward the durable
//               watermark. The worker group-commits (partition_worker.h):
//               one record covers the run of batches it drained from
//               its queue, [batch_lo, batch_hi), at most queue_capacity
//               of them, and is written before the consumer waits for
//               more input or handles a registration or round close;
//   compaction  the WAL is periodically folded into immutable
//               CRC-guarded segment files (one per round, "SDPS"
//               framing, atomic-rename discipline), then truncated. A
//               live round's segment carries its mid-round state
//               (CheckpointState), a finalized round's its RoundJournal;
//   recovery    segments load first, then the WAL suffix replays on
//               top. Records carry monotonic LSNs and each segment
//               records the last LSN folded into it, so replay is
//               idempotent: a crash between segment publish and WAL
//               truncation — or a duplicated record — applies as a
//               no-op. Any number of rounds (finalized history + the
//               live round) recover together;
//   queries     Query() serves round history (status, watermark,
//               finalized journal) — the storage side of the kQuery
//               wire frame (transport.h);
//   retention   CloseRound() garbage-collects finalized rounds beyond
//               the keep-last-K knob.
//
// SegmentedRoundStore is the one backend. Segment, WAL and delta bytes
// are specified (with worked examples) in docs/WIRE_FORMAT.md §6–7.
//
// Concurrency: the worker's consumer thread is the only writer
// (AppendDelta / FinalizeRound / CloseRound / AbandonRound); Query and
// LoadAll may run from any thread. The store serializes internally.

#ifndef SHUFFLEDP_SERVICE_ROUND_STORE_H_
#define SHUFFLEDP_SERVICE_ROUND_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "service/partition.h"
#include "service/wal.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

/// Round store knobs (part of StreamingOptions). `dir` empty disables
/// durable persistence.
struct RoundStoreOptions {
  /// Store directory (created if missing): holds `wal.log` and one
  /// `round-<id>.seg` segment per stored round.
  std::string dir;
  /// Finalized rounds retained for history queries; older rounds are
  /// garbage-collected at CloseRound. Clamped to >= 1 — the newest
  /// finalized round always survives so a crashed coordinator can
  /// re-fetch its result after a restart.
  uint64_t retain_rounds = 4;
  /// WAL records between compactions (segment rewrite + log truncate).
  uint64_t compact_every_records = 256;
  /// Slice identity (OpenRoundStore fills it from the resolved slice).
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  uint64_t slice_lo = 0;
  uint64_t slice_width = 0;  ///< supports length; required when dir set
};

/// One consistent snapshot of a partially drained round, as of the
/// moment `batches_consumed` batches had been fully accumulated — the
/// payload of a live round's segment (byte layout: docs/WIRE_FORMAT.md
/// §7, round-state payload).
struct CheckpointState {
  uint64_t round_id = 0;
  /// Partition identity of the worker that wrote the state. A recovered
  /// worker refuses state for a different partition — a misrouted
  /// segment must not resurrect another slice's counts.
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  uint64_t slice_lo = 0;          ///< first owned value (0 for full domain)
  uint64_t batches_consumed = 0;  ///< replay watermark
  uint64_t rows_seen = 0;
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  /// Merged shard aggregates over the owned slice (length = slice size;
  /// the full domain for single-node / kByClient workers).
  std::vector<uint64_t> supports;
  /// Spot-check dummies not yet matched: (packed report, tag) -> count.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dummies_remaining;
};

/// Finalized state of a *closed* round — the payload of a finalized
/// round's segment and of the WAL kFinalize record (byte layout:
/// docs/WIRE_FORMAT.md §7, journal payload). Everything downstream of
/// these fields — Finalize-order merge and estimator calibration — is a
/// deterministic pure function, so replaying the journal reproduces the
/// RoundResult bitwise.
struct RoundJournal {
  uint64_t round_id = 0;
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  uint64_t slice_lo = 0;
  uint64_t n = 0;
  uint64_t n_fake = 0;
  uint8_t calibration = 0;  ///< service::Calibration wire value
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  std::vector<uint64_t> supports;  ///< finalized, length = slice size
};

/// One batch group's incremental effect on round state — what the WAL
/// persists instead of a full snapshot. Batch-free records (spot-check
/// dummy registrations, which mutate the multiset between batches) use
/// an empty range `batch_lo == batch_hi`.
struct RoundDelta {
  uint64_t round_id = 0;
  uint64_t batch_lo = 0;  ///< consumed-batch watermark before this group
  uint64_t batch_hi = 0;  ///< watermark after ([lo, hi) consumed)
  uint64_t rows_delta = 0;
  uint64_t decoded_delta = 0;
  uint64_t invalid_delta = 0;
  /// Sparse support increments: (slice-relative index, +count),
  /// ascending by index.
  std::vector<std::pair<uint64_t, uint64_t>> support_deltas;
  /// Spot-check dummy registrations / consumptions: (packed, tag, count).
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> dummies_registered;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> dummies_consumed;
};

/// Delta payload codec (WAL kDelta record payload; golden-pinned in
/// docs/WIRE_FORMAT.md §6).
Bytes SerializeRoundDelta(const RoundDelta& delta);
Result<RoundDelta> ParseRoundDelta(const Bytes& payload);

/// One recovered round. Live rounds carry the mid-round CheckpointState
/// (feed it to PartitionWorker::RecoverRound and replay from the
/// watermark); finalized rounds carry the RoundJournal (feed it to
/// RecoverFinalizedRound / FinalizeRoundResult).
struct StoredRound {
  bool finalized = false;
  CheckpointState state;  ///< valid when !finalized
  RoundJournal journal;   ///< valid when finalized
  uint64_t batches_consumed = 0;  ///< watermark (both kinds)

  uint64_t round_id() const {
    return finalized ? journal.round_id : state.round_id;
  }
};

enum class RoundStatus : uint8_t {
  kUnknown = 0,
  kActive = 1,
  kFinalized = 2,
};

/// Query() answer — the storage side of the kQuery wire frame.
struct RoundLookup {
  RoundStatus status = RoundStatus::kUnknown;
  uint64_t watermark = 0;  ///< durably consumed batches
  RoundJournal journal;    ///< valid when status == kFinalized
};

/// Crash-consistent round persistence. See the file comment for the
/// engine.
class RoundStore {
 public:
  /// Unused by SegmentedRoundStore. Kept, with WantsDeltas(), only
  /// because perfbench's TracingRoundStore overrides both; they go when
  /// that wrapper does.
  using SnapshotFn = std::function<CheckpointState()>;

  virtual ~RoundStore() = default;

  /// Always true for SegmentedRoundStore (see SnapshotFn).
  virtual bool WantsDeltas() const = 0;

  /// Records one batch group's deltas for the round (consumer thread).
  /// `snapshot` may be null (see SnapshotFn).
  virtual Status AppendDelta(const RoundDelta& delta,
                             const SnapshotFn& snapshot) = 0;

  /// Durably records the finalized round (called before the result is
  /// handed out; always an fsync barrier). `batches_consumed` is the
  /// round's final watermark — the journal itself does not carry one.
  virtual Status FinalizeRound(const RoundJournal& journal,
                               uint64_t batches_consumed) = 0;

  /// The round's result has been delivered: run retention GC. The round
  /// stays queryable until retention expires it.
  virtual Status CloseRound(uint64_t round_id) = 0;

  /// Drops a failed round's state so recovery does not resurrect a
  /// round the pipeline abandoned.
  virtual Status AbandonRound(uint64_t round_id) = 0;

  /// Every stored round, ascending by round id (recovery entry point).
  virtual Result<std::vector<StoredRound>> LoadAll() = 0;

  /// Round history lookup (any thread).
  virtual Result<RoundLookup> Query(uint64_t round_id) = 0;
};

/// The WAL + segment engine (file comment above).
class SegmentedRoundStore : public RoundStore {
 public:
  /// Opens the store: creates `options.dir` (and missing parents),
  /// validates and scans the WAL (truncating a torn tail), loads every
  /// segment and replays the WAL suffix. A corrupt segment or WAL
  /// header is a hard error: refuse to guess.
  static Result<std::unique_ptr<SegmentedRoundStore>> Open(
      const RoundStoreOptions& options);

  bool WantsDeltas() const override { return true; }
  Status AppendDelta(const RoundDelta& delta,
                     const SnapshotFn& snapshot) override;
  Status FinalizeRound(const RoundJournal& journal,
                       uint64_t batches_consumed) override;
  Status CloseRound(uint64_t round_id) override;
  Status AbandonRound(uint64_t round_id) override;
  Result<std::vector<StoredRound>> LoadAll() override;
  Result<RoundLookup> Query(uint64_t round_id) override;

  /// Forces a compaction (segment rewrite + WAL truncate) now — the
  /// shutdown hook and tests; AppendDelta triggers it automatically
  /// every `compact_every_records` records.
  Status CompactNow();

  /// Diagnostics / tests.
  uint64_t next_lsn() const;
  uint64_t wal_truncated_bytes() const { return wal_truncated_bytes_; }
  std::string SegmentPath(uint64_t round_id) const;

 private:
  struct RoundEntry {
    CheckpointState state;  ///< live mirror (empty once finalized)
    bool finalized = false;
    RoundJournal journal;
    uint64_t batches_consumed = 0;
    uint64_t last_lsn = 0;  ///< newest LSN folded into this entry
    bool dirty = false;     ///< has WAL records no segment covers
    bool closed = false;    ///< result delivered (retention-eligible)
  };

  explicit SegmentedRoundStore(RoundStoreOptions options)
      : options_(std::move(options)) {}

  RoundEntry& EntryForLocked(uint64_t round_id);
  Status ApplyDeltaLocked(const RoundDelta& delta, uint64_t lsn);
  Status ApplyFinalizeLocked(const RoundJournal& journal,
                             uint64_t batches_consumed, uint64_t lsn);
  void ApplyAbandonLocked(uint64_t round_id);
  /// Appends one record and fsyncs it (every record is a barrier).
  Status AppendRecordLocked(WalRecordType type, const Bytes& payload);
  /// Compacts when the record cadence is due. Must run only after the
  /// just-appended record was applied to the mirror — compaction folds
  /// the mirror into segments and then drops the WAL, so an unapplied
  /// record would be truncated without ever being folded.
  Status MaybeCompactLocked();
  Status CompactLocked();
  void RetentionGcLocked();
  Status LoadSegmentsLocked();
  Status ReplayLocked(std::vector<WriteAheadLog::Record> records);

  RoundStoreOptions options_;
  mutable std::mutex mu_;
  std::map<uint64_t, RoundEntry> rounds_;
  /// Segments of retention-expired rounds, unlinked only by the next
  /// compaction *after* the WAL truncate: while any WAL record can
  /// still reference a round, its base segment must stay on disk or a
  /// crash makes replay see a delta that no longer chains to anything.
  std::vector<uint64_t> pending_segment_unlinks_;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t next_lsn_ = 1;
  uint64_t appended_since_compact_ = 0;
  uint64_t wal_truncated_bytes_ = 0;
};

/// Opens a SegmentedRoundStore for the worker owning `slice` (resolved:
/// lo/hi set), filling the options' slice identity from it. An empty
/// `options.dir` means durability is off: the Result is OK and the
/// shared_ptr empty.
Result<std::shared_ptr<RoundStore>> OpenRoundStore(
    RoundStoreOptions options, const PartitionSlice& slice);

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_ROUND_STORE_H_
