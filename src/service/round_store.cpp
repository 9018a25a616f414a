#include "service/round_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

namespace shuffledp {
namespace service {

namespace {

constexpr char kWalFileName[] = "wal.log";
constexpr char kSegmentPrefix[] = "round-";
constexpr char kSegmentSuffix[] = ".seg";

/// Parses "round-<digits>.seg" into the round id; anything else (tmp
/// staging files, the WAL, stray entries) is not a segment.
bool ParseSegmentName(const std::string& name, uint64_t* round_id) {
  const size_t prefix_len = sizeof(kSegmentPrefix) - 1;
  const size_t suffix_len = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kSegmentPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
      0) {
    return false;
  }
  uint64_t id = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (id > (UINT64_MAX - (c - '0')) / 10) return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  *round_id = id;
  return true;
}

void PutDummyEntries(
    ByteWriter& w,
    const std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>& entries) {
  w.PutVarint(entries.size());
  for (const auto& [packed, tag, count] : entries) {
    w.PutU64(packed);
    w.PutU64(tag);
    w.PutVarint(count);
  }
}

Status GetDummyEntries(
    ByteReader& r, const char* what,
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>* out) {
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > r.Remaining() / 17) {  // 8 + 8 + >=1 bytes per entry
    return Status::DataLoss(std::string("delta ") + what +
                            " count exceeds payload");
  }
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t packed, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t tag, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    out->emplace_back(packed, tag, count);
  }
  return Status::OK();
}

/// mkdir -p: creates `dir` and every missing parent. Returns 0, or the
/// errno of the first component that could not be created (its path in
/// `*failed`). An existing component is not an error.
int MakeDirs(const std::string& dir, std::string* failed) {
  for (size_t pos = dir.find('/', 1);; pos = dir.find('/', pos + 1)) {
    const std::string prefix = dir.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      const int err = errno;
      *failed = prefix;
      return err;
    }
    if (pos == std::string::npos) return 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// RoundDelta codec
// ---------------------------------------------------------------------------

Bytes SerializeRoundDelta(const RoundDelta& delta) {
  ByteWriter w(48 + delta.support_deltas.size() * 4 +
               (delta.dummies_registered.size() +
                delta.dummies_consumed.size()) *
                   20);
  w.PutVarint(delta.round_id);
  w.PutVarint(delta.batch_lo);
  w.PutVarint(delta.batch_hi);
  w.PutVarint(delta.rows_delta);
  w.PutVarint(delta.decoded_delta);
  w.PutVarint(delta.invalid_delta);
  w.PutVarint(delta.support_deltas.size());
  for (const auto& [index, count] : delta.support_deltas) {
    w.PutVarint(index);
    w.PutVarint(count);
  }
  PutDummyEntries(w, delta.dummies_registered);
  PutDummyEntries(w, delta.dummies_consumed);
  return w.Release();
}

Result<RoundDelta> ParseRoundDelta(const Bytes& payload) {
  ByteReader r(payload);
  RoundDelta delta;
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.round_id, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.batch_lo, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.batch_hi, r.GetVarint());
  if (delta.batch_hi < delta.batch_lo) {
    return Status::DataLoss("delta batch range is inverted");
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.rows_delta, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.decoded_delta, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(delta.invalid_delta, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n_supports, r.GetVarint());
  if (n_supports > r.Remaining() / 2) {  // >= 2 varint bytes per entry
    return Status::DataLoss("delta support count exceeds payload");
  }
  delta.support_deltas.reserve(n_supports);
  uint64_t prev_index = 0;
  bool first = true;
  for (uint64_t i = 0; i < n_supports; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t index, r.GetVarint());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    if (!first && index <= prev_index) {
      return Status::DataLoss("delta support indices not ascending");
    }
    first = false;
    prev_index = index;
    delta.support_deltas.emplace_back(index, count);
  }
  SHUFFLEDP_RETURN_NOT_OK(
      GetDummyEntries(r, "registered", &delta.dummies_registered));
  SHUFFLEDP_RETURN_NOT_OK(
      GetDummyEntries(r, "consumed", &delta.dummies_consumed));
  if (!r.AtEnd()) {
    return Status::DataLoss("delta payload has trailing bytes");
  }
  return delta;
}

// ---------------------------------------------------------------------------
// LegacyCheckpointStore
// ---------------------------------------------------------------------------

Status LegacyCheckpointStore::AppendDelta(const RoundDelta& delta,
                                          const SnapshotFn& snapshot) {
  // Preserve the exact legacy cadence: one full snapshot whenever a real
  // batch lands on the every_batches boundary (delta.batch_hi equals the
  // worker's consumed-batch count). Registration-only deltas never wrote
  // a checkpoint before and still do not.
  const uint64_t every = std::max<uint64_t>(1, options_.every_batches);
  const bool snapshot_due =
      delta.batch_hi > delta.batch_lo && delta.batch_hi % every == 0;
  if (snapshot_due) {
    SHUFFLEDP_RETURN_NOT_OK(WriteCheckpoint(options_.path, snapshot()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_ = true;
  live_round_ = delta.round_id;
  if (snapshot_due) live_watermark_ = delta.batch_hi;
  return Status::OK();
}

Status LegacyCheckpointStore::FinalizeRound(const RoundJournal& journal,
                                            uint64_t batches_consumed) {
  SHUFFLEDP_RETURN_NOT_OK(
      WriteRoundJournal(RoundJournalPath(options_.path), journal));
  std::lock_guard<std::mutex> lock(mu_);
  have_journal_ = true;
  journal_ = journal;
  journal_batches_ = batches_consumed;
  if (live_ && live_round_ == journal.round_id) live_ = false;
  return Status::OK();
}

Status LegacyCheckpointStore::CloseRound(uint64_t round_id) {
  RemoveCheckpoint(options_.path);
  std::lock_guard<std::mutex> lock(mu_);
  if (live_ && live_round_ == round_id) {
    live_ = false;
    live_watermark_ = 0;
  }
  return Status::OK();
}

Status LegacyCheckpointStore::AbandonRound(uint64_t round_id) {
  return CloseRound(round_id);
}

Result<std::vector<StoredRound>> LegacyCheckpointStore::LoadAll() {
  std::vector<StoredRound> rounds;
  Result<RoundJournal> journal = ReadRoundJournal(RoundJournalPath(
      options_.path));
  if (journal.ok()) {
    StoredRound round;
    round.finalized = true;
    round.journal = *journal;
    rounds.push_back(std::move(round));
  } else if (journal.status().code() != StatusCode::kNotFound) {
    return journal.status();
  }
  Result<CheckpointState> state = ReadCheckpoint(options_.path);
  if (state.ok()) {
    StoredRound round;
    round.finalized = false;
    round.batches_consumed = state->batches_consumed;
    round.state = std::move(*state);
    rounds.push_back(std::move(round));
  } else if (state.status().code() != StatusCode::kNotFound) {
    return state.status();
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const StoredRound& a, const StoredRound& b) {
              return a.round_id() < b.round_id();
            });
  {
    // Seed the Query mirror so history works after recovery too.
    std::lock_guard<std::mutex> lock(mu_);
    for (const StoredRound& round : rounds) {
      if (round.finalized) {
        have_journal_ = true;
        journal_ = round.journal;
        journal_batches_ = 0;  // the legacy journal carries no watermark
      } else {
        live_ = true;
        live_round_ = round.state.round_id;
        live_watermark_ = round.state.batches_consumed;
      }
    }
  }
  return rounds;
}

Result<RoundLookup> LegacyCheckpointStore::Query(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(mu_);
  RoundLookup lookup;
  if (have_journal_ && journal_.round_id == round_id) {
    lookup.status = RoundStatus::kFinalized;
    lookup.watermark = journal_batches_;
    lookup.journal = journal_;
  } else if (live_ && live_round_ == round_id) {
    lookup.status = RoundStatus::kActive;
    lookup.watermark = live_watermark_;
  }
  return lookup;
}

// ---------------------------------------------------------------------------
// SegmentedRoundStore
// ---------------------------------------------------------------------------

std::string SegmentedRoundStore::SegmentPath(uint64_t round_id) const {
  return options_.dir + "/" + kSegmentPrefix + std::to_string(round_id) +
         kSegmentSuffix;
}

Result<std::unique_ptr<SegmentedRoundStore>> SegmentedRoundStore::Open(
    const RoundStoreOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("round store directory is empty");
  }
  if (options.slice_width == 0) {
    return Status::InvalidArgument("round store slice width is zero");
  }
  if (options.partition_count == 0 || options.partition_count > 0xFFFF ||
      options.partition_index >= options.partition_count) {
    return Status::InvalidArgument(
        "round store partition identity out of range");
  }
  std::string failed_dir;
  if (const int err = MakeDirs(options.dir, &failed_dir); err != 0) {
    return MapStorageErrno("round store", failed_dir, "mkdir", err);
  }

  std::unique_ptr<SegmentedRoundStore> store(
      new SegmentedRoundStore(options));
  WriteAheadLog::Options wal_options;
  wal_options.path = options.dir + "/" + kWalFileName;
  wal_options.partition_index = options.partition_index;
  wal_options.partition_count = options.partition_count;
  SHUFFLEDP_ASSIGN_OR_RETURN(store->wal_, WriteAheadLog::Open(wal_options));
  store->wal_truncated_bytes_ = store->wal_->truncated_bytes();

  std::lock_guard<std::mutex> lock(store->mu_);
  SHUFFLEDP_RETURN_NOT_OK(store->LoadSegmentsLocked());
  std::vector<WriteAheadLog::Record> records =
      store->wal_->TakeRecovered();
  if (store->rounds_.empty() && records.empty()) {
    SHUFFLEDP_RETURN_NOT_OK(store->ImportLegacyLocked());
    if (!store->rounds_.empty()) {
      // Make the imported base durable as segments *now*: the worker's
      // next deltas continue from the legacy watermark, so a crash
      // before the first cadence compaction would otherwise leave a WAL
      // whose first delta has batch_lo > 0 and no base to chain to —
      // replay would fail the continuity check forever. (The legacy
      // files themselves stay untouched: import is read-only.)
      SHUFFLEDP_RETURN_NOT_OK(store->CompactLocked());
    }
  }
  SHUFFLEDP_RETURN_NOT_OK(store->ReplayLocked(std::move(records)));
  return store;
}

Status SegmentedRoundStore::LoadSegmentsLocked() {
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return MapStorageErrno("round store", options_.dir, "opendir", errno);
  }
  std::vector<uint64_t> segment_ids;
  while (struct dirent* entry = ::readdir(dir)) {
    uint64_t round_id = 0;
    if (ParseSegmentName(entry->d_name, &round_id)) {
      segment_ids.push_back(round_id);
    }
  }
  ::closedir(dir);
  std::sort(segment_ids.begin(), segment_ids.end());

  for (uint64_t round_id : segment_ids) {
    // A corrupt segment is a hard error: segments are written with the
    // atomic-rename discipline, so a bad one means real media damage —
    // refuse to guess rather than silently drop a round.
    SHUFFLEDP_ASSIGN_OR_RETURN(
        Bytes payload,
        ReadFramedFile(SegmentPath(round_id), kSegmentMagic,
                       "round segment"));
    ByteReader r(payload);
    RoundEntry entry;
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t stored_id, r.GetU64());
    if (stored_id != round_id) {
      return Status::DataLoss("round segment id does not match filename: " +
                              SegmentPath(round_id));
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(entry.last_lsn, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t finalized, r.GetU8());
    if (finalized > 1) {
      return Status::DataLoss("round segment finalized flag out of range");
    }
    entry.finalized = finalized == 1;
    SHUFFLEDP_ASSIGN_OR_RETURN(entry.batches_consumed, r.GetVarint());
    SHUFFLEDP_ASSIGN_OR_RETURN(Bytes inner, r.GetBytes(r.Remaining()));
    if (entry.finalized) {
      SHUFFLEDP_ASSIGN_OR_RETURN(entry.journal, ParseJournalPayload(inner));
      if (entry.journal.round_id != round_id) {
        return Status::DataLoss("round segment journal id mismatch");
      }
      entry.closed = true;  // only closed rounds survive long enough to
                            // be compacted as finalized history
    } else {
      SHUFFLEDP_ASSIGN_OR_RETURN(entry.state, ParseCheckpointPayload(inner));
      if (entry.state.round_id != round_id) {
        return Status::DataLoss("round segment state id mismatch");
      }
      if (entry.state.partition_index != options_.partition_index ||
          entry.state.partition_count != options_.partition_count ||
          entry.state.slice_lo != options_.slice_lo ||
          entry.state.supports.size() != options_.slice_width) {
        return Status::FailedPrecondition(
            "round segment belongs to a different slice: " +
            SegmentPath(round_id));
      }
      entry.batches_consumed = entry.state.batches_consumed;
    }
    next_lsn_ = std::max(next_lsn_, entry.last_lsn + 1);
    rounds_.emplace(round_id, std::move(entry));
  }
  return Status::OK();
}

Status SegmentedRoundStore::ImportLegacyLocked() {
  if (options_.legacy_checkpoint_path.empty()) return Status::OK();

  Result<CheckpointState> state =
      ReadCheckpoint(options_.legacy_checkpoint_path);
  if (state.ok()) {
    if (state->partition_index != options_.partition_index ||
        state->partition_count != options_.partition_count ||
        state->slice_lo != options_.slice_lo ||
        state->supports.size() != options_.slice_width) {
      return Status::FailedPrecondition(
          "legacy checkpoint belongs to a different slice: " +
          options_.legacy_checkpoint_path);
    }
    RoundEntry entry;
    entry.finalized = false;
    entry.batches_consumed = state->batches_consumed;
    entry.state = std::move(*state);
    entry.dirty = true;  // next compaction converts it into a segment
    rounds_.emplace(entry.state.round_id, std::move(entry));
  } else if (state.status().code() != StatusCode::kNotFound) {
    return state.status();
  }

  Result<RoundJournal> journal = ReadRoundJournal(
      RoundJournalPath(options_.legacy_checkpoint_path));
  if (journal.ok()) {
    RoundEntry entry;
    entry.finalized = true;
    entry.closed = true;
    entry.journal = std::move(*journal);
    entry.dirty = true;
    rounds_.emplace(entry.journal.round_id, std::move(entry));
  } else if (journal.status().code() != StatusCode::kNotFound) {
    return journal.status();
  }
  return Status::OK();
}

Status SegmentedRoundStore::ReplayLocked(
    std::vector<WriteAheadLog::Record> records) {
  // Pre-scan for abandons: AbandonRound unlinks the round's segment as
  // soon as the abandon record is durable, so a crash before the next
  // compaction leaves earlier deltas for that round in the log with no
  // base segment to chain to (their batch_lo is the vanished segment's
  // watermark). Those deltas are dead — the abandon wipes the round
  // regardless — so replay skips any record a later abandon supersedes
  // instead of failing the continuity check and bricking recovery.
  std::map<uint64_t, uint64_t> abandoned_at;  // round id -> newest lsn
  for (const WriteAheadLog::Record& record : records) {
    if (record.type != WalRecordType::kAbandon) continue;
    ByteReader r(record.payload);
    Result<uint64_t> round_id = r.GetVarint();
    if (round_id.ok()) {
      uint64_t& lsn = abandoned_at[*round_id];
      lsn = std::max(lsn, record.lsn);
    }
  }
  for (WriteAheadLog::Record& record : records) {
    next_lsn_ = std::max(next_lsn_, record.lsn + 1);
    switch (record.type) {
      case WalRecordType::kDelta: {
        SHUFFLEDP_ASSIGN_OR_RETURN(RoundDelta delta,
                                   ParseRoundDelta(record.payload));
        auto abandoned = abandoned_at.find(delta.round_id);
        if (abandoned != abandoned_at.end() &&
            record.lsn < abandoned->second) {
          break;  // a later abandon wipes this round — dead delta
        }
        auto it = rounds_.find(delta.round_id);
        if (it != rounds_.end() && record.lsn <= it->second.last_lsn) {
          break;  // already folded into a segment — idempotent replay
        }
        SHUFFLEDP_RETURN_NOT_OK(ApplyDeltaLocked(delta, record.lsn));
        break;
      }
      case WalRecordType::kFinalize: {
        ByteReader r(record.payload);
        SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t batches, r.GetVarint());
        SHUFFLEDP_ASSIGN_OR_RETURN(Bytes inner, r.GetBytes(r.Remaining()));
        SHUFFLEDP_ASSIGN_OR_RETURN(RoundJournal journal,
                                   ParseJournalPayload(inner));
        auto it = rounds_.find(journal.round_id);
        if (it != rounds_.end() && record.lsn <= it->second.last_lsn) {
          break;
        }
        SHUFFLEDP_RETURN_NOT_OK(
            ApplyFinalizeLocked(journal, batches, record.lsn));
        break;
      }
      case WalRecordType::kAbandon: {
        ByteReader r(record.payload);
        SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t round_id, r.GetVarint());
        auto it = rounds_.find(round_id);
        if (it != rounds_.end() && record.lsn <= it->second.last_lsn) {
          // The round's segment already folded state *past* this
          // abandon (a crash landed between compaction's segment
          // publish and the WAL truncate) — replaying it would unlink
          // the newer segment and lose the round.
          break;
        }
        ApplyAbandonLocked(round_id);
        break;
      }
    }
  }
  return Status::OK();
}

SegmentedRoundStore::RoundEntry& SegmentedRoundStore::EntryForLocked(
    uint64_t round_id) {
  auto it = rounds_.find(round_id);
  if (it != rounds_.end()) return it->second;
  RoundEntry entry;
  entry.state.round_id = round_id;
  entry.state.partition_index = options_.partition_index;
  entry.state.partition_count = options_.partition_count;
  entry.state.slice_lo = options_.slice_lo;
  entry.state.supports.assign(options_.slice_width, 0);
  return rounds_.emplace(round_id, std::move(entry)).first->second;
}

Status SegmentedRoundStore::ApplyDeltaLocked(const RoundDelta& delta,
                                             uint64_t lsn) {
  RoundEntry& entry = EntryForLocked(delta.round_id);
  if (entry.finalized) {
    return Status::Internal("delta for finalized round " +
                            std::to_string(delta.round_id));
  }
  CheckpointState& state = entry.state;
  if (delta.batch_lo != state.batches_consumed) {
    return Status::Internal(
        "delta batch range [" + std::to_string(delta.batch_lo) + ", " +
        std::to_string(delta.batch_hi) + ") does not continue watermark " +
        std::to_string(state.batches_consumed) + " for round " +
        std::to_string(delta.round_id));
  }
  for (const auto& [index, count] : delta.support_deltas) {
    if (index >= state.supports.size()) {
      return Status::DataLoss("delta support index outside slice");
    }
    state.supports[index] += count;
  }
  for (const auto& [packed, tag, count] : delta.dummies_registered) {
    state.dummies_remaining[{packed, tag}] += count;
    state.dummies_expected += count;
  }
  for (const auto& [packed, tag, count] : delta.dummies_consumed) {
    auto it = state.dummies_remaining.find({packed, tag});
    if (it == state.dummies_remaining.end() || it->second < count) {
      return Status::DataLoss(
          "delta consumes more dummies than are registered");
    }
    it->second -= count;
    if (it->second == 0) state.dummies_remaining.erase(it);
    state.dummies_recognized += count;
  }
  state.rows_seen += delta.rows_delta;
  state.reports_decoded += delta.decoded_delta;
  state.reports_invalid += delta.invalid_delta;
  state.batches_consumed = delta.batch_hi;
  entry.batches_consumed = delta.batch_hi;
  entry.last_lsn = lsn;
  entry.dirty = true;
  return Status::OK();
}

Status SegmentedRoundStore::ApplyFinalizeLocked(const RoundJournal& journal,
                                                uint64_t batches_consumed,
                                                uint64_t lsn) {
  RoundEntry& entry = EntryForLocked(journal.round_id);
  entry.finalized = true;
  entry.journal = journal;
  entry.batches_consumed = batches_consumed;
  entry.last_lsn = lsn;
  entry.dirty = true;
  // The journal carries the finalized supports; drop the live mirror.
  entry.state.supports.clear();
  entry.state.supports.shrink_to_fit();
  entry.state.dummies_remaining.clear();
  return Status::OK();
}

void SegmentedRoundStore::ApplyAbandonLocked(uint64_t round_id) {
  auto it = rounds_.find(round_id);
  if (it != rounds_.end() && !it->second.finalized) {
    rounds_.erase(it);
  }
  // Also drop any live segment so a later recovery (after the WAL is
  // truncated) cannot resurrect the abandoned round from it. Runs only
  // once the abandon record is durable, so a crash anywhere around the
  // unlink is covered: ReplayLocked skips deltas a later abandon
  // supersedes, whether or not their base segment still exists.
  // Best-effort — a surviving segment is re-unlinked on abandon replay.
  (void)StorageUnlink(SegmentPath(round_id), "round segment");
}

Status SegmentedRoundStore::AppendRecordLocked(WalRecordType type,
                                               const Bytes& payload) {
  SHUFFLEDP_RETURN_NOT_OK(wal_->Append(type, next_lsn_, payload));
  ++next_lsn_;
  ++appended_since_compact_;
  // Every record is an fsync barrier. The worker already folds queued
  // batches into one record (group commit), so syncing less often would
  // only weaken durability.
  return wal_->Sync();
}

Status SegmentedRoundStore::MaybeCompactLocked() {
  // Callers run this only *after* applying the just-appended record to
  // the mirror. Compacting from inside AppendRecordLocked would fold a
  // mirror that does not yet include the record — and then truncate
  // that record out of the WAL, silently losing it for recovery.
  const uint64_t compact_every =
      std::max<uint64_t>(1, options_.compact_every_records);
  if (appended_since_compact_ < compact_every) return Status::OK();
  return CompactLocked();
}

Status SegmentedRoundStore::AppendDelta(const RoundDelta& delta,
                                        const SnapshotFn& snapshot) {
  (void)snapshot;  // deltas make the full-snapshot path unnecessary
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t lsn = next_lsn_;
  SHUFFLEDP_RETURN_NOT_OK(
      AppendRecordLocked(WalRecordType::kDelta, SerializeRoundDelta(delta)));
  SHUFFLEDP_RETURN_NOT_OK(ApplyDeltaLocked(delta, lsn));
  return MaybeCompactLocked();
}

Status SegmentedRoundStore::FinalizeRound(const RoundJournal& journal,
                                          uint64_t batches_consumed) {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter w(16 + journal.supports.size() * 2);
  w.PutVarint(batches_consumed);
  Bytes inner = SerializeJournalPayload(journal);
  w.PutBytes(inner);
  const uint64_t lsn = next_lsn_;
  // Finalize is always an fsync barrier: the result is handed to the
  // coordinator right after this returns, so it must already be durable.
  SHUFFLEDP_RETURN_NOT_OK(AppendRecordLocked(WalRecordType::kFinalize,
                                             w.Release()));
  SHUFFLEDP_RETURN_NOT_OK(ApplyFinalizeLocked(journal, batches_consumed, lsn));
  return MaybeCompactLocked();
}

Status SegmentedRoundStore::CloseRound(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rounds_.find(round_id);
  if (it == rounds_.end()) return Status::OK();
  it->second.closed = true;
  if (!it->second.finalized) {
    // A round closed without a durable finalize (degraded durability):
    // drop it like an abandon so recovery does not replay a round whose
    // result already left the building. The segment unlink is gated on
    // the abandon record being durable — unlinking on a failed append
    // would fabricate a disk state (segment gone, no abandon record) no
    // real crash can reach, and the WAL suffix would then reference a
    // round whose base state vanished.
    ByteWriter w(10);
    w.PutVarint(round_id);
    Status st = AppendRecordLocked(WalRecordType::kAbandon, w.Release());
    if (st.ok()) {
      ApplyAbandonLocked(round_id);
      return MaybeCompactLocked();
    }
    rounds_.erase(round_id);  // mirror only; disk stays crash-consistent
    return st;
  }
  RetentionGcLocked();
  return Status::OK();
}

Status SegmentedRoundStore::AbandonRound(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rounds_.find(round_id);
  if (it == rounds_.end() || it->second.finalized) return Status::OK();
  ByteWriter w(10);
  w.PutVarint(round_id);
  Status st = AppendRecordLocked(WalRecordType::kAbandon, w.Release());
  if (st.ok()) {
    // Durable first, then visible: the unlink mirrors what replaying
    // the abandon record would do. On a failed append the disk stays
    // untouched (recovery resurrects the round — true crash semantics);
    // only the in-memory mirror drops it, since the pipeline is done
    // with the round either way.
    ApplyAbandonLocked(round_id);
    return MaybeCompactLocked();
  }
  rounds_.erase(round_id);
  return st;
}

void SegmentedRoundStore::RetentionGcLocked() {
  const uint64_t retain = std::max<uint64_t>(1, options_.retain_rounds);
  // rounds_ is ordered ascending by id; walk finalized+closed rounds
  // newest-first and expire everything past the retention horizon.
  std::vector<uint64_t> finalized_ids;
  for (const auto& [round_id, entry] : rounds_) {
    if (entry.finalized && entry.closed) finalized_ids.push_back(round_id);
  }
  if (finalized_ids.size() <= retain) return;
  const size_t expire = finalized_ids.size() - retain;
  for (size_t i = 0; i < expire; ++i) {
    const uint64_t round_id = finalized_ids[i];
    rounds_.erase(round_id);
    // The segment is NOT unlinked here: the WAL may still hold records
    // for this round (deltas chaining to the segment's watermark), and
    // removing their base would brick replay after a crash. The next
    // compaction unlinks it right after the WAL truncate, when nothing
    // can reference it. Until then the expired round is merely
    // invisible; a crash resurrects it and the next close re-expires
    // it — benign.
    pending_segment_unlinks_.push_back(round_id);
  }
}

Status SegmentedRoundStore::CompactLocked() {
  for (auto& [round_id, entry] : rounds_) {
    if (!entry.dirty) continue;
    ByteWriter w(64);
    w.PutU64(round_id);
    w.PutU64(entry.last_lsn);
    w.PutU8(entry.finalized ? 1 : 0);
    w.PutVarint(entry.batches_consumed);
    if (entry.finalized) {
      Bytes inner = SerializeJournalPayload(entry.journal);
      w.PutBytes(inner);
    } else {
      Bytes inner = SerializeCheckpointPayload(entry.state);
      w.PutBytes(inner);
    }
    SHUFFLEDP_RETURN_NOT_OK(WriteFramedFile(SegmentPath(round_id),
                                            kSegmentMagic, w.Release(),
                                            "round segment"));
    entry.dirty = false;
  }
  SHUFFLEDP_RETURN_NOT_OK(wal_->TruncateAll());
  // Retention-expired segments go only now, after the truncate: no WAL
  // record can reference them anymore. A crash before this point leaves
  // the segment in place (the round resurrects and re-expires — benign);
  // a crash mid-unlink leaves orphan segments the next GC re-collects.
  for (uint64_t round_id : pending_segment_unlinks_) {
    if (rounds_.count(round_id) != 0) continue;  // round id re-appeared
    (void)StorageUnlink(SegmentPath(round_id), "round segment");
  }
  pending_segment_unlinks_.clear();
  appended_since_compact_ = 0;
  return Status::OK();
}

Status SegmentedRoundStore::CompactNow() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

Result<std::vector<StoredRound>> SegmentedRoundStore::LoadAll() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredRound> rounds;
  rounds.reserve(rounds_.size());
  for (const auto& [round_id, entry] : rounds_) {
    StoredRound round;
    round.finalized = entry.finalized;
    round.batches_consumed = entry.batches_consumed;
    if (entry.finalized) {
      round.journal = entry.journal;
    } else {
      round.state = entry.state;
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

Result<RoundLookup> SegmentedRoundStore::Query(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(mu_);
  RoundLookup lookup;
  auto it = rounds_.find(round_id);
  if (it == rounds_.end()) return lookup;
  lookup.watermark = it->second.batches_consumed;
  if (it->second.finalized) {
    lookup.status = RoundStatus::kFinalized;
    lookup.journal = it->second.journal;
  } else {
    lookup.status = RoundStatus::kActive;
  }
  return lookup;
}

uint64_t SegmentedRoundStore::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<std::shared_ptr<RoundStore>> OpenRoundStore(
    const RoundStoreOptions& options, const CheckpointOptions& legacy) {
  if (!options.dir.empty()) {
    RoundStoreOptions resolved = options;
    if (resolved.legacy_checkpoint_path.empty()) {
      resolved.legacy_checkpoint_path = legacy.path;
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(std::unique_ptr<SegmentedRoundStore> store,
                               SegmentedRoundStore::Open(resolved));
    return std::shared_ptr<RoundStore>(std::move(store));
  }
  if (!legacy.path.empty()) {
    return std::shared_ptr<RoundStore>(
        std::make_shared<LegacyCheckpointStore>(legacy));
  }
  return std::shared_ptr<RoundStore>();
}

}  // namespace service
}  // namespace shuffledp
