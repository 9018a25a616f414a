// Per-worker write-ahead log for the durable round store.
//
// Rather than rewriting the whole counter state every few batches —
// O(slice) bytes per snapshot — the consumer appends one small
// CRC-framed record per group of ingested batches (sparse support
// deltas, tally deltas, dummy-multiset deltas) and fsyncs every record,
// and the round store periodically compacts the log into immutable
// segment files (round_store.h). A group is the run of batches the
// worker drained from its queue before writing — at most queue_capacity
// of them, one batch when the queue keeps up — so under load one fsync
// covers many batches (group commit, partition_worker.h), while a
// record's bytes stay O(slice width). Crash recovery is a scan: records
// are validated front-to-back, the first invalid record ends the log (a
// torn tail from a crash mid-append), and the file is truncated back to
// the last valid record so the next append starts from a clean
// boundary.
//
// On-disk layout (all integers little-endian; see docs/WIRE_FORMAT.md
// §6 for the golden-pinned worked example):
//
//   file header (16 bytes)
//   0   4   magic "SDPW" (0x53 0x44 0x50 0x57)
//   4   1   version (kWalVersion)
//   5   1   reserved, zero
//   6   2   partition index (u16) — the slice identity of the writer; a
//   8   2   partition count (u16)   recovering store refuses another
//                                   slice's log
//   10  2   reserved, zero
//   12  4   CRC-32 of bytes [0, 12)
//
//   record frame (repeated; body = type byte .. payload end)
//   0   4   body length (u32) = 9 + payload length
//   4   4   CRC-32 of the body bytes
//   8   1   record type (WalRecordType)
//   9   8   LSN (u64) — monotonically increasing across truncations
//   17  ..  payload (round_store.h owns the per-type payload codecs)
//
// LSNs are what make replay idempotent: segment files record the last
// LSN folded into them, so a crash *between* writing segments and
// truncating the log (or a duplicated record from a torn append retry)
// replays as a no-op — the store skips any record whose LSN it has
// already applied.
//
// This header also exports the storage syscall wrappers shared with the
// segment writer (round_store.cpp): write / fsync / rename / ftruncate
// with the storage fault-injection hooks (fault_injection.h kFileWrite/
// kFileSync/kFileRename) and the ENOSPC → kResourceExhausted taxonomy
// mapping that lets the worker degrade instead of poisoning a round.

#ifndef SHUFFLEDP_SERVICE_WAL_H_
#define SHUFFLEDP_SERVICE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

inline constexpr uint8_t kWalMagic[4] = {'S', 'D', 'P', 'W'};
inline constexpr uint8_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 16;
inline constexpr size_t kWalRecordHeaderBytes = 8;  ///< length + CRC
/// Body length sanity cap: a record larger than this fails validation
/// before any allocation (a torn length field cannot balloon memory).
inline constexpr uint32_t kMaxWalRecordBody = 1u << 26;

/// What a WAL record means to the round store.
enum class WalRecordType : uint8_t {
  kDelta = 1,     ///< incremental RoundDelta (round_store.h codec)
  kFinalize = 2,  ///< round finalized: batches_consumed + journal payload
  kAbandon = 3,   ///< round abandoned (failed): varint round id
};

// ---------------------------------------------------------------------------
// Fault-injectable storage syscall wrappers (shared with round_store.cpp)
// ---------------------------------------------------------------------------

/// Maps a storage errno to the retry taxonomy: ENOSPC/EDQUOT become
/// kResourceExhausted (degrade-eligible, see retry.h), everything else
/// kInternal. `verb` names the failed operation for the message.
Status MapStorageErrno(const char* what, const std::string& path,
                       const char* verb, int err);

/// write(2) loop writing all `len` bytes. Consults the kFileWrite fault
/// hook first: a scripted errno fails without writing, a short-write
/// action writes only the capped prefix (a torn tail on disk) and then
/// fails — both mapped through MapStorageErrno.
Status StorageWriteAll(int fd, const uint8_t* data, size_t len,
                       const char* what, const std::string& path);

/// fsync(2) behind the kFileSync hook.
Status StorageFsync(int fd, const char* what, const std::string& path);

/// rename(2) behind the kFileRename hook (the atomic-publish step of
/// every framed-file write).
Status StorageRename(const std::string& from, const std::string& to,
                     const char* what);

/// ftruncate(2) behind the kFileWrite hook (a log truncation is a
/// mutation of durable bytes, so it counts as a crash point too).
Status StorageTruncate(int fd, uint64_t len, const char* what,
                       const std::string& path);

/// unlink(2) behind the kFileUnlink hook. An already-absent file is
/// success — the caller wants it gone either way.
Status StorageUnlink(const std::string& path, const char* what);

// ---------------------------------------------------------------------------
// WriteAheadLog
// ---------------------------------------------------------------------------

/// Append-only CRC-framed record log with torn-tail recovery. Not
/// thread-safe: the round store serializes access under its own mutex.
class WriteAheadLog {
 public:
  struct Options {
    std::string path;
    uint32_t partition_index = 0;
    uint32_t partition_count = 1;
  };

  struct Record {
    WalRecordType type = WalRecordType::kDelta;
    uint64_t lsn = 0;
    Bytes payload;
  };

  /// Opens (creating if absent) and scans the log. An existing log must
  /// carry this slice's identity. A torn or corrupt tail is truncated
  /// in place (and fsynced) before Open returns; the valid prefix is
  /// available from TakeRecovered(). A file shorter than the 16-byte
  /// header is a torn *initial* header publish — it cannot hold any
  /// record, so it reopens as a fresh log. A corrupt full-length
  /// header is DataLoss — refuse to guess.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const Options& options);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Records recovered by Open, in log order (moved out; call once).
  std::vector<Record> TakeRecovered() { return std::move(recovered_); }

  /// Bytes dropped by torn-tail truncation at Open (diagnostics).
  uint64_t truncated_bytes() const { return truncated_bytes_; }

  /// Appends one record (no implicit sync — the store owns the fsync
  /// barrier cadence).
  Status Append(WalRecordType type, uint64_t lsn, const Bytes& payload);

  /// fsync barrier: everything appended so far is durable after this.
  Status Sync();

  /// Drops every record (keeps the header) after compaction has made
  /// them redundant, then fsyncs.
  Status TruncateAll();

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  std::vector<Record> recovered_;
  uint64_t truncated_bytes_ = 0;
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_WAL_H_
