#include "service/round_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/bytes.h"
#include "util/hash.h"

namespace shuffledp {
namespace service {

namespace {

constexpr char kWalFileName[] = "wal.log";
constexpr char kSegmentPrefix[] = "round-";
constexpr char kSegmentSuffix[] = ".seg";

// Segment framing (docs/WIRE_FORMAT.md §7): magic "SDPS", u8 version,
// 3 reserved zero bytes, u32 payload length, u32 CRC-32 of the payload,
// then the payload.
constexpr uint8_t kSegmentMagic[4] = {'S', 'D', 'P', 'S'};
constexpr uint8_t kFramingVersion = 2;
constexpr size_t kHeaderBytes = 16;
constexpr char kWhat[] = "round segment";  // storage error context

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

// Payload codecs for CheckpointState and RoundJournal (byte layouts:
// docs/WIRE_FORMAT.md §7), and the atomic segment-file write/read.

Bytes SerializeCheckpointPayload(const CheckpointState& state) {
  ByteWriter w(64 + state.supports.size() * 4 +
               state.dummies_remaining.size() * 20);
  w.PutU64(state.round_id);
  w.PutVarint(state.partition_index);
  w.PutVarint(state.partition_count);
  w.PutVarint(state.slice_lo);
  w.PutVarint(state.batches_consumed);
  w.PutVarint(state.rows_seen);
  w.PutVarint(state.reports_decoded);
  w.PutVarint(state.reports_invalid);
  w.PutVarint(state.dummies_recognized);
  w.PutVarint(state.dummies_expected);
  w.PutVarint(state.supports.size());
  for (uint64_t s : state.supports) w.PutVarint(s);
  w.PutVarint(state.dummies_remaining.size());
  for (const auto& [key, count] : state.dummies_remaining) {
    w.PutU64(key.first);
    w.PutU64(key.second);
    w.PutVarint(count);
  }
  return w.Release();
}

Result<CheckpointState> ParseCheckpointPayload(const Bytes& payload) {
  ByteReader r(payload);
  CheckpointState state;
  SHUFFLEDP_ASSIGN_OR_RETURN(state.round_id, r.GetU64());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_index, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_count, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.slice_lo, r.GetVarint());
  if (part_count == 0 || part_count > 0xFFFF || part_index >= part_count) {
    return Status::DataLoss("round state partition fields out of range");
  }
  state.partition_index = static_cast<uint32_t>(part_index);
  state.partition_count = static_cast<uint32_t>(part_count);
  SHUFFLEDP_ASSIGN_OR_RETURN(state.batches_consumed, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.rows_seen, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.reports_decoded, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.reports_invalid, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.dummies_recognized, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.dummies_expected, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
  // Each support needs at least one payload byte; a hostile length field
  // cannot drive the reserve below past the file size.
  if (d > r.Remaining()) {
    return Status::DataLoss("round state supports length exceeds payload");
  }
  state.supports.reserve(d);
  for (uint64_t i = 0; i < d; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t s, r.GetVarint());
    state.supports.push_back(s);
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n_dummies, r.GetVarint());
  if (n_dummies > r.Remaining() / 17) {  // 8 + 8 + >=1 bytes per entry
    return Status::DataLoss("round state dummy count exceeds payload");
  }
  for (uint64_t i = 0; i < n_dummies; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t packed, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t tag, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    state.dummies_remaining[{packed, tag}] = count;
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("round state payload has trailing bytes");
  }
  return state;
}

Bytes SerializeJournalPayload(const RoundJournal& journal) {
  ByteWriter w(64 + journal.supports.size() * 4);
  w.PutU64(journal.round_id);
  w.PutVarint(journal.partition_index);
  w.PutVarint(journal.partition_count);
  w.PutVarint(journal.slice_lo);
  w.PutVarint(journal.n);
  w.PutVarint(journal.n_fake);
  w.PutU8(journal.calibration);
  w.PutVarint(journal.reports_decoded);
  w.PutVarint(journal.reports_invalid);
  w.PutVarint(journal.dummies_recognized);
  w.PutVarint(journal.dummies_expected);
  w.PutVarint(journal.supports.size());
  for (uint64_t s : journal.supports) w.PutVarint(s);
  return w.Release();
}

Result<RoundJournal> ParseJournalPayload(const Bytes& payload) {
  ByteReader r(payload);
  RoundJournal journal;
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.round_id, r.GetU64());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_index, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_count, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.slice_lo, r.GetVarint());
  if (part_count == 0 || part_count > 0xFFFF || part_index >= part_count) {
    return Status::DataLoss("journal partition fields out of range");
  }
  journal.partition_index = static_cast<uint32_t>(part_index);
  journal.partition_count = static_cast<uint32_t>(part_count);
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.n, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.n_fake, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.calibration, r.GetU8());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.reports_decoded, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.reports_invalid, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.dummies_recognized, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.dummies_expected, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
  if (d > r.Remaining()) {
    return Status::DataLoss("journal supports length exceeds payload");
  }
  journal.supports.reserve(d);
  for (uint64_t i = 0; i < d; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t s, r.GetVarint());
    journal.supports.push_back(s);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("journal payload has trailing bytes");
  }
  return journal;
}

/// Stage + fsync + rename a framed segment: a crash at any point leaves
/// either the old file or the new one at `path`, never a torn mix. All
/// storage syscalls go through the fault-injectable wrappers in wal.h,
/// so ENOSPC surfaces as kResourceExhausted.
Status WriteSegmentFile(const std::string& path, const Bytes& payload) {
  ByteWriter file(kHeaderBytes + payload.size());
  file.PutBytes(kSegmentMagic, 4);
  file.PutU8(kFramingVersion);
  file.PutU8(0);
  file.PutU8(0);
  file.PutU8(0);
  file.PutU32(static_cast<uint32_t>(payload.size()));
  file.PutU32(Crc32(payload.data(), payload.size()));
  file.PutBytes(payload);
  const Bytes& bytes = file.data();

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return MapStorageErrno(kWhat, tmp, "open", errno);
  }
  Status st = StorageWriteAll(fd, bytes.data(), bytes.size(), kWhat, tmp);
  if (st.ok()) st = StorageFsync(fd, kWhat, tmp);
  ::close(fd);
  if (st.ok()) st = StorageRename(tmp, path, kWhat);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  return Status::OK();
}

/// Reads and validates a segment file: magic, version, reserved bytes,
/// length and CRC must all match, or the read fails (DataLoss) without
/// returning a partial payload.
Result<Bytes> ReadSegmentFile(const std::string& path) {
  const std::string what = kWhat;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no " + what + " at " + path);
  }
  Bytes bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);

  if (bytes.size() < kHeaderBytes) {
    return Status::DataLoss(what + " file shorter than header");
  }
  ByteReader r(bytes);
  SHUFFLEDP_ASSIGN_OR_RETURN(Bytes file_magic, r.GetBytes(4));
  if (std::memcmp(file_magic.data(), kSegmentMagic, 4) != 0) {
    return Status::DataLoss(what + " magic mismatch");
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFramingVersion) {
    return Status::DataLoss("unsupported " + what + " version " +
                            std::to_string(version));
  }
  for (int i = 0; i < 3; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t reserved, r.GetU8());
    if (reserved != 0) {
      return Status::DataLoss(what + " reserved bytes are nonzero");
    }
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint32_t payload_len, r.GetU32());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());
  if (payload_len != r.Remaining()) {
    return Status::DataLoss(what + " length field does not match file");
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(Bytes payload, r.GetBytes(payload_len));
  if (Crc32(payload.data(), payload.size()) != expected_crc) {
    return Status::DataLoss(what + " CRC mismatch (torn or corrupt)");
  }
  return payload;
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
  SHUFFLEDP_RETURN_NOT_OK(store->ReplayLocked(store->wal_->TakeRecovered()));
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
        ReadSegmentFile(SegmentPath(round_id)));
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
  (void)StorageUnlink(SegmentPath(round_id), kWhat);
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
                                        const SnapshotFn& /*snapshot*/) {
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
    SHUFFLEDP_RETURN_NOT_OK(
        WriteSegmentFile(SegmentPath(round_id), w.Release()));
    entry.dirty = false;
  }
  SHUFFLEDP_RETURN_NOT_OK(wal_->TruncateAll());
  // Retention-expired segments go only now, after the truncate: no WAL
  // record can reference them anymore. A crash before this point leaves
  // the segment in place (the round resurrects and re-expires — benign);
  // a crash mid-unlink leaves orphan segments the next GC re-collects.
  for (uint64_t round_id : pending_segment_unlinks_) {
    if (rounds_.count(round_id) != 0) continue;  // round id re-appeared
    (void)StorageUnlink(SegmentPath(round_id), kWhat);
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
    RoundStoreOptions options, const PartitionSlice& slice) {
  if (options.dir.empty()) return std::shared_ptr<RoundStore>();
  options.partition_index = slice.index;
  options.partition_count = slice.count;
  options.slice_lo = slice.lo;
  options.slice_width = slice.hi - slice.lo;
  SHUFFLEDP_ASSIGN_OR_RETURN(std::unique_ptr<SegmentedRoundStore> store,
                             SegmentedRoundStore::Open(options));
  return std::shared_ptr<RoundStore>(std::move(store));
}

}  // namespace service
}  // namespace shuffledp
