// Durable round store units: WAL framing (golden-pinned bytes, torn
// tail, bit flips, slice identity), the RoundDelta codec, live and
// finalized segment goldens and their corruption matrix, LSN-idempotent
// replay (duplicate records), retention GC, the worker-level ENOSPC
// degrade path, the worker's group commit (one WAL record per drained
// run of queued batches), and worker recovery through the store. The
// crash-point-exhaustive sweep lives in round_store_crash_test.cpp.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "batch_gate.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "service/fault_injection.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "service/wal.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "shuffledp_" + name;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

std::vector<uint8_t> ReadRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(f);
  }
  return bytes;
}

void WriteRaw(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

RoundDelta SampleDelta() {
  RoundDelta delta;
  delta.round_id = 3;
  delta.batch_lo = 1;
  delta.batch_hi = 2;
  delta.rows_delta = 2;
  delta.decoded_delta = 2;
  delta.invalid_delta = 0;
  delta.support_deltas = {{1, 1}, {4, 1}};
  return delta;
}

TEST(RoundDeltaCodec, RoundTrip) {
  RoundDelta delta = SampleDelta();
  delta.invalid_delta = 7;
  delta.dummies_registered = {{0x123456789ABCDEF0ULL, 42, 2}};
  delta.dummies_consumed = {{0x123456789ABCDEF0ULL, 42, 1}};
  auto parsed = ParseRoundDelta(SerializeRoundDelta(delta));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->round_id, delta.round_id);
  EXPECT_EQ(parsed->batch_lo, delta.batch_lo);
  EXPECT_EQ(parsed->batch_hi, delta.batch_hi);
  EXPECT_EQ(parsed->rows_delta, delta.rows_delta);
  EXPECT_EQ(parsed->decoded_delta, delta.decoded_delta);
  EXPECT_EQ(parsed->invalid_delta, delta.invalid_delta);
  EXPECT_EQ(parsed->support_deltas, delta.support_deltas);
  EXPECT_EQ(parsed->dummies_registered, delta.dummies_registered);
  EXPECT_EQ(parsed->dummies_consumed, delta.dummies_consumed);
}

// The worked example in docs/WIRE_FORMAT.md §6, byte for byte.
TEST(RoundDeltaCodec, GoldenVectorMatchesDoc) {
  const Bytes expected = {
      0x03,              // round_id 3
      0x01, 0x02,        // batches [1, 2)
      0x02, 0x02, 0x00,  // rows 2, decoded 2, invalid 0
      0x02,              // 2 support deltas
      0x01, 0x01,        // index 1 += 1
      0x04, 0x01,        // index 4 += 1
      0x00,              // no dummies registered
      0x00,              // no dummies consumed
  };
  EXPECT_EQ(SerializeRoundDelta(SampleDelta()), expected);
}

TEST(RoundDeltaCodec, MalformedPayloadsRejected) {
  Bytes good = SerializeRoundDelta(SampleDelta());
  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(ParseRoundDelta(trailing).ok());
  // Inverted batch range (hi < lo).
  RoundDelta inverted = SampleDelta();
  inverted.batch_lo = 5;
  inverted.batch_hi = 2;
  EXPECT_FALSE(ParseRoundDelta(SerializeRoundDelta(inverted)).ok());
  // Support indices must ascend.
  RoundDelta descending = SampleDelta();
  descending.support_deltas = {{4, 1}, {1, 1}};
  EXPECT_FALSE(ParseRoundDelta(SerializeRoundDelta(descending)).ok());
  // Truncations die cleanly (no allocation balloon, no crash).
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(ParseRoundDelta({good.begin(), good.begin() + len}).ok())
        << "len=" << len;
  }
}

// The worked example in docs/WIRE_FORMAT.md §6, byte for byte: header +
// one kDelta record (LSN 1) carrying the golden delta payload. If this
// breaks, update the doc with the new bytes or fix the code — never the
// test alone.
TEST(Wal, GoldenBytesMatchDoc) {
  const std::string path = TempPath("wal_golden.log");
  std::remove(path.c_str());
  WriteAheadLog::Options options;
  options.path = path;
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(
        (*wal)->Append(WalRecordType::kDelta, 1,
                       SerializeRoundDelta(SampleDelta())).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  const std::vector<uint8_t> expected = {
      0x53, 0x44, 0x50, 0x57,  // magic "SDPW"
      0x01, 0x00,              // version 1, reserved
      0x00, 0x00, 0x01, 0x00,  // partition 0 of 1
      0x00, 0x00,              // reserved
      0xF2, 0xE9, 0x90, 0x8D,  // CRC-32 of header[0, 12)
      0x16, 0x00, 0x00, 0x00,  // body length 22
      0x39, 0x21, 0xD8, 0x9B,  // CRC-32 of body
      0x01,                    // type kDelta
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // LSN 1
      0x03, 0x01, 0x02, 0x02, 0x02, 0x00,              // delta payload...
      0x02, 0x01, 0x01, 0x04, 0x01, 0x00, 0x00,
  };
  EXPECT_EQ(ReadRaw(path), expected);
  std::remove(path.c_str());
}

TEST(Wal, TornTailIsTruncatedAndValidPrefixRecovered) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  WriteAheadLog::Options options;
  options.path = path;
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 1, {0x01}).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 2, {0x02}).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<uint8_t> bytes = ReadRaw(path);
  const size_t clean_size = bytes.size();
  // A crash mid-append leaves a partial record frame.
  bytes.insert(bytes.end(), {0x0D, 0x00, 0x00, 0x00, 0xAA, 0xBB});
  WriteRaw(path, bytes);
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto records = (*wal)->TakeRecovered();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].lsn, 1u);
    EXPECT_EQ(records[1].lsn, 2u);
    EXPECT_GT((*wal)->truncated_bytes(), 0u);
  }
  // The torn bytes are gone from disk: the next append starts clean.
  EXPECT_EQ(ReadRaw(path).size(), clean_size);
  std::remove(path.c_str());
}

TEST(Wal, BitFlipEndsTheScanAtTheCorruptRecord) {
  const std::string path = TempPath("wal_flip.log");
  std::remove(path.c_str());
  WriteAheadLog::Options options;
  options.path = path;
  size_t first_record_end = 0;
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 1, {0x01}).ok());
    first_record_end = ReadRaw(path).size();
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 2, {0x02}).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 3, {0x03}).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::vector<uint8_t> bytes = ReadRaw(path);
  bytes[first_record_end + kWalRecordHeaderBytes] ^= 0x01;  // record 2 body
  WriteRaw(path, bytes);
  auto wal = WriteAheadLog::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  // Only the prefix before the corruption survives — record 3 was valid
  // but unreachable, exactly what a torn tail means.
  auto records = (*wal)->TakeRecovered();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  std::remove(path.c_str());
}

TEST(Wal, TornInitialHeaderRestartsAsFresh) {
  const std::string path = TempPath("wal_torn_header.log");
  std::remove(path.c_str());
  WriteAheadLog::Options options;
  options.path = path;
  { ASSERT_TRUE(WriteAheadLog::Open(options).ok()); }
  // A crash mid-publish of the very first header write leaves a short
  // prefix. No record can exist yet — nothing to lose — so the log
  // restarts as fresh instead of failing every later open.
  std::vector<uint8_t> bytes = ReadRaw(path);
  bytes.resize(7);
  WriteRaw(path, bytes);
  {
    auto wal = WriteAheadLog::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_TRUE((*wal)->TakeRecovered().empty());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 1, {0x01}).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // The rewritten header is whole again: the next open recovers.
  auto wal = WriteAheadLog::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->TakeRecovered().size(), 1u);
  std::remove(path.c_str());
}

TEST(Wal, HeaderCorruptionAndSliceMismatchRefused) {
  const std::string path = TempPath("wal_header.log");
  std::remove(path.c_str());
  WriteAheadLog::Options options;
  options.path = path;
  options.partition_index = 1;
  options.partition_count = 4;
  { ASSERT_TRUE(WriteAheadLog::Open(options).ok()); }
  // Another slice's log must be refused (misrouted volume mount).
  WriteAheadLog::Options other = options;
  other.partition_index = 2;
  EXPECT_FALSE(WriteAheadLog::Open(other).ok());
  // A flipped header byte is DataLoss, not a silent fresh start.
  std::vector<uint8_t> bytes = ReadRaw(path);
  bytes[5] ^= 0x40;
  WriteRaw(path, bytes);
  EXPECT_FALSE(WriteAheadLog::Open(options).ok());
  std::remove(path.c_str());
}

RoundStoreOptions StoreOptions(const std::string& dir, uint64_t width) {
  RoundStoreOptions options;
  options.dir = dir;
  options.slice_width = width;
  return options;
}

TEST(SegmentedStore, IngestFinalizeQueryReopen) {
  const std::string dir = TempPath("store_basic");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 8);
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    RoundDelta d;
    d.round_id = 7;
    d.batch_lo = 0;
    d.batch_hi = 1;
    d.rows_delta = 3;
    d.decoded_delta = 3;
    d.support_deltas = {{2, 2}, {5, 1}};
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
    auto live = (*store)->Query(7);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live->status, RoundStatus::kActive);
    EXPECT_EQ(live->watermark, 1u);
    EXPECT_EQ((*store)->Query(99)->status, RoundStatus::kUnknown);

    RoundJournal journal;
    journal.round_id = 7;
    journal.n = 3;
    journal.calibration = 1;
    journal.reports_decoded = 3;
    journal.supports = {0, 0, 2, 0, 0, 1, 0, 0};
    ASSERT_TRUE((*store)->FinalizeRound(journal, 1).ok());
  }
  // Everything above lives only in the WAL (no compaction ran) — a
  // reopen replays it.
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto rounds = (*store)->LoadAll();
  ASSERT_TRUE(rounds.ok());
  ASSERT_EQ(rounds->size(), 1u);
  EXPECT_TRUE((*rounds)[0].finalized);
  EXPECT_EQ((*rounds)[0].round_id(), 7u);
  EXPECT_EQ((*rounds)[0].batches_consumed, 1u);
  EXPECT_EQ((*rounds)[0].journal.supports,
            (std::vector<uint64_t>{0, 0, 2, 0, 0, 1, 0, 0}));
  auto lookup = (*store)->Query(7);
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->status, RoundStatus::kFinalized);
  EXPECT_EQ(lookup->watermark, 1u);
  EXPECT_EQ(lookup->journal.n, 3u);
  RemoveTree(dir);
}

// A store directory whose parents do not exist yet is created whole
// (mkdir -p); a parent that is a regular file is still a real error,
// mapped through MapStorageErrno with the failing component's path.
TEST(SegmentedStore, OpenCreatesMissingParentDirectories) {
  const std::string root = TempPath("store_parents");
  RemoveTree(root);
  const std::string dir = root + "/a/b/store";
  RoundStoreOptions options = StoreOptions(dir, 8);
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    RoundDelta d = SampleDelta();
    d.batch_lo = 0;
    d.batch_hi = 1;
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
  }
  // Reopening the now-existing tree replays what was written.
  auto reopened = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto lookup = (*reopened)->Query(3);
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->status, RoundStatus::kActive);
  EXPECT_EQ(lookup->watermark, 1u);

  WriteRaw(root + "/file", {1});
  auto under_file = SegmentedRoundStore::Open(
      StoreOptions(root + "/file/x/store", 8));
  ASSERT_FALSE(under_file.ok());
  EXPECT_EQ(under_file.status().code(), StatusCode::kInternal);
  EXPECT_NE(under_file.status().message().find(root + "/file/x"),
            std::string::npos)
      << under_file.status().ToString();
  RemoveTree(root);
}

// The worked example in docs/WIRE_FORMAT.md §7, byte for byte.
TEST(SegmentedStore, SegmentGoldenBytesMatchDoc) {
  const std::string dir = TempPath("store_golden");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 8);
  options.compact_every_records = 1000;  // compact only on demand
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  RoundDelta d = SampleDelta();
  d.batch_lo = 0;
  d.batch_hi = 1;
  ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
  RoundJournal journal;
  journal.round_id = 3;
  journal.n = 2;
  journal.calibration = 1;
  journal.reports_decoded = 2;
  journal.supports = {0, 1, 0, 0, 1, 0, 0, 0};
  ASSERT_TRUE((*store)->FinalizeRound(journal, 1).ok());
  ASSERT_TRUE((*store)->CompactNow().ok());
  const std::vector<uint8_t> expected = {
      0x53, 0x44, 0x50, 0x53,  // magic "SDPS"
      0x02, 0x00, 0x00, 0x00,  // framing version, reserved
      0x2D, 0x00, 0x00, 0x00,  // payload length 45
      0xC2, 0xC1, 0x4E, 0xC2,  // CRC-32(payload)
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round_id 3
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // last LSN 2
      0x01,                                            // finalized
      0x01,                                            // watermark 1
      // journal payload (round_store.h codec)
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round_id 3
      0x00, 0x01, 0x00,                                // partition 0/1, lo 0
      0x02, 0x00, 0x01,                                // n 2, n_fake 0, cal 1
      0x02, 0x00, 0x00, 0x00,                          // tallies
      0x08, 0x00, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // supports
  };
  EXPECT_EQ(ReadRaw((*store)->SegmentPath(3)), expected);
  // The WAL was truncated back to its bare header by the compaction.
  EXPECT_EQ(ReadRaw(dir + "/wal.log").size(), kWalHeaderBytes);
  RemoveTree(dir);
}

// Live round 5 over a width-4 slice, compacted into its segment: three
// spot-check dummies registered, then one batch of three rows (one kept,
// one dummy, one invalid). Two dummies stay outstanding.
void WriteLiveSample(SegmentedRoundStore& store) {
  RoundDelta registration;
  registration.round_id = 5;
  registration.dummies_registered = {{0x11, 7, 2}, {0x22, 0, 1}};
  ASSERT_TRUE(store.AppendDelta(registration, nullptr).ok());
  RoundDelta batch;
  batch.round_id = 5;
  batch.batch_lo = 0;
  batch.batch_hi = 1;
  batch.rows_delta = 3;
  batch.decoded_delta = 1;
  batch.invalid_delta = 1;
  batch.support_deltas = {{2, 1}};
  batch.dummies_consumed = {{0x22, 0, 1}};
  ASSERT_TRUE(store.AppendDelta(batch, nullptr).ok());
  ASSERT_TRUE(store.CompactNow().ok());
}

// The live-segment worked example in docs/WIRE_FORMAT.md §7, byte for
// byte: the mid-round state payload, including the outstanding dummy.
TEST(SegmentedStore, LiveSegmentGoldenBytesMatchDoc) {
  const std::string dir = TempPath("store_live_golden");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 4);
  options.compact_every_records = 1000;  // compact only on demand
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  WriteLiveSample(**store);
  const std::vector<uint8_t> expected = {
      0x53, 0x44, 0x50, 0x53,  // magic "SDPS"
      0x02, 0x00, 0x00, 0x00,  // framing version, reserved
      0x3A, 0x00, 0x00, 0x00,  // payload length 58
      0xD5, 0xE1, 0x7E, 0xB3,  // CRC-32(payload)
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round_id 5
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // last LSN 2
      0x00,                                            // live
      0x01,                                            // watermark 1
      // mid-round state payload
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round_id 5
      0x00, 0x01, 0x00,                                // partition 0/1, lo 0
      0x01, 0x03, 0x01, 0x01, 0x01, 0x03,              // tallies
      0x04, 0x00, 0x00, 0x01, 0x00,                    // supports
      0x01,                                            // 1 dummy entry
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // packed 0x11
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // tag 7
      0x02,                                            // remaining 2
  };
  EXPECT_EQ(ReadRaw((*store)->SegmentPath(5)), expected);
  RemoveTree(dir);
}

// Every single-bit flip and every truncation of a published segment
// makes Open fail loudly — DataLoss, or FailedPrecondition should the
// damage read as another slice's state — and never yields a store with
// the round silently missing.
void ExpectEveryCorruptionRefused(const RoundStoreOptions& options,
                                  uint64_t round_id) {
  std::string segment;
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    segment = (*store)->SegmentPath(round_id);
  }
  const std::vector<uint8_t> bytes = ReadRaw(segment);
  ASSERT_GT(bytes.size(), 16u);
  auto expect_refused = [&](const std::vector<uint8_t>& damaged,
                            const std::string& what) {
    WriteRaw(segment, damaged);
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_FALSE(store.ok()) << what << " opened";
    const StatusCode code = store.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kFailedPrecondition)
        << what << ": " << store.status().ToString();
    if (what == "byte 4 bit 0") {  // framing version 2 -> 3
      EXPECT_NE(store.status().message().find("version"), std::string::npos)
          << store.status().ToString();
    }
  };
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[i] ^= static_cast<uint8_t>(1u << bit);
      expect_refused(flipped, "byte " + std::to_string(i) + " bit " +
                                  std::to_string(bit));
    }
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    expect_refused({bytes.begin(), bytes.begin() + len},
                   "truncated to " + std::to_string(len));
  }
  // The undamaged segment still opens with its round.
  WriteRaw(segment, bytes);
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_NE((*store)->Query(round_id)->status, RoundStatus::kUnknown);
}

TEST(SegmentedStore, EveryLiveSegmentCorruptionIsRefused) {
  const std::string dir = TempPath("store_live_corrupt");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 4);
  options.compact_every_records = 1000;
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    WriteLiveSample(**store);
  }
  ExpectEveryCorruptionRefused(options, 5);
  RemoveTree(dir);
}

TEST(SegmentedStore, EveryFinalizedSegmentCorruptionIsRefused) {
  const std::string dir = TempPath("store_final_corrupt");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 4);
  options.partition_index = 2;
  options.partition_count = 4;
  options.slice_lo = 96;
  options.compact_every_records = 1000;
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    RoundJournal journal;
    journal.round_id = 5;
    journal.partition_index = 2;
    journal.partition_count = 4;
    journal.slice_lo = 96;
    journal.n = 120000;
    journal.n_fake = 7500;
    journal.calibration = 1;
    journal.reports_decoded = 123456;
    journal.reports_invalid = 77;
    journal.dummies_recognized = 3;
    journal.dummies_expected = 3;
    journal.supports = {9, 0, 12345, 2};
    ASSERT_TRUE((*store)->FinalizeRound(journal, 12).ok());
    ASSERT_TRUE((*store)->CompactNow().ok());
  }
  ExpectEveryCorruptionRefused(options, 5);
  RemoveTree(dir);
}

TEST(SegmentedStore, DuplicateRecordReplaysAsNoOp) {
  const std::string dir = TempPath("store_dup");
  RemoveTree(dir);
  ASSERT_EQ(::system(("mkdir -p '" + dir + "'").c_str()), 0);
  // Craft a WAL whose delta record appears twice with the same LSN —
  // what a crashed append retry can leave behind.
  WriteAheadLog::Options wal_options;
  wal_options.path = dir + "/wal.log";
  {
    auto wal = WriteAheadLog::Open(wal_options);
    ASSERT_TRUE(wal.ok());
    RoundDelta d = SampleDelta();
    d.batch_lo = 0;
    d.batch_hi = 1;
    Bytes payload = SerializeRoundDelta(d);
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 1, payload).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kDelta, 1, payload).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto store = SegmentedRoundStore::Open(StoreOptions(dir, 8));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto rounds = (*store)->LoadAll();
  ASSERT_TRUE(rounds.ok());
  ASSERT_EQ(rounds->size(), 1u);
  // Applied once: watermark 1, supports counted a single time.
  EXPECT_EQ((*rounds)[0].batches_consumed, 1u);
  EXPECT_EQ((*rounds)[0].state.supports[1], 1u);
  EXPECT_EQ((*rounds)[0].state.supports[4], 1u);
  RemoveTree(dir);
}

// AbandonRound unlinks the round's base segment the moment the abandon
// record is durable — but earlier deltas chaining to that segment's
// watermark may still sit in the WAL. A crash before the next
// compaction must not brick recovery on the orphaned deltas.
TEST(SegmentedStore, AbandonAfterMidRoundCompactionRecovers) {
  const std::string dir = TempPath("store_abandon_residue");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 8);
  options.compact_every_records = 1000;  // no cadence compaction
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    RoundDelta d;
    d.round_id = 5;
    d.batch_lo = 0;
    d.batch_hi = 1;
    d.support_deltas = {{0, 1}};
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
    // Mid-round compaction: the segment becomes the round's base...
    ASSERT_TRUE((*store)->CompactNow().ok());
    // ...the next delta chains to its watermark in the WAL...
    d.batch_lo = 1;
    d.batch_hi = 2;
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
    // ...and the abandon unlinks the base out from under that delta.
    ASSERT_TRUE((*store)->AbandonRound(5).ok());
  }  // crash before any further compaction
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto rounds = (*store)->LoadAll();
  ASSERT_TRUE(rounds.ok());
  EXPECT_TRUE(rounds->empty());
  EXPECT_EQ((*store)->Query(5)->status, RoundStatus::kUnknown);
  RemoveTree(dir);
}

// Retention GC must not unlink an expired round's segment while WAL
// records still chain to it: the unlink waits for the next compaction,
// right after the log truncate.
TEST(SegmentedStore, RetentionGcDefersUnlinkUntilWalTruncate) {
  const std::string dir = TempPath("store_gc_residue");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 4);
  options.retain_rounds = 1;
  options.compact_every_records = 1000;
  std::string seg1;
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    seg1 = (*store)->SegmentPath(1);
    // Round 1: mid-round base segment, then chained delta + finalize
    // living only in the WAL.
    RoundDelta d;
    d.round_id = 1;
    d.batch_lo = 0;
    d.batch_hi = 1;
    d.support_deltas = {{0, 1}};
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
    ASSERT_TRUE((*store)->CompactNow().ok());
    d.batch_lo = 1;
    d.batch_hi = 2;
    ASSERT_TRUE((*store)->AppendDelta(d, nullptr).ok());
    RoundJournal j1;
    j1.round_id = 1;
    j1.n = 2;
    j1.supports = {2, 0, 0, 0};
    ASSERT_TRUE((*store)->FinalizeRound(j1, 2).ok());
    ASSERT_TRUE((*store)->CloseRound(1).ok());
    RoundJournal j2;
    j2.round_id = 2;
    j2.n = 1;
    j2.supports = {1, 0, 0, 0};
    ASSERT_TRUE((*store)->FinalizeRound(j2, 0).ok());
    // Closing round 2 expires round 1 — but its chained delta is still
    // in the log, so the segment must survive the GC.
    ASSERT_TRUE((*store)->CloseRound(2).ok());
    EXPECT_FALSE(ReadRaw(seg1).empty());
  }  // crash with the expired round's records still in the WAL
  {
    auto store = SegmentedRoundStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The expired round resurrected (benign); re-expiring it and
    // compacting finally removes the segment — after the truncate.
    ASSERT_TRUE((*store)->CloseRound(1).ok());
    ASSERT_TRUE((*store)->CloseRound(2).ok());
    ASSERT_TRUE((*store)->CompactNow().ok());
    std::FILE* gone = std::fopen(seg1.c_str(), "rb");
    EXPECT_EQ(gone, nullptr) << "expired segment survived the compaction";
    if (gone != nullptr) std::fclose(gone);
    auto rounds = (*store)->LoadAll();
    ASSERT_TRUE(rounds.ok());
    ASSERT_EQ(rounds->size(), 1u);
    EXPECT_EQ((*rounds)[0].round_id(), 2u);
  }
  RemoveTree(dir);
}

TEST(SegmentedStore, RetentionKeepsNewestK) {
  const std::string dir = TempPath("store_gc");
  RemoveTree(dir);
  RoundStoreOptions options = StoreOptions(dir, 4);
  options.retain_rounds = 2;
  options.compact_every_records = 1;  // segment per record: GC visible
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (uint64_t round = 1; round <= 4; ++round) {
    RoundJournal journal;
    journal.round_id = round;
    journal.n = 1;
    journal.supports = {1, 0, 0, 0};
    ASSERT_TRUE((*store)->FinalizeRound(journal, 0).ok());
    ASSERT_TRUE((*store)->CloseRound(round).ok());
  }
  auto rounds = (*store)->LoadAll();
  ASSERT_TRUE(rounds.ok());
  ASSERT_EQ(rounds->size(), 2u);
  EXPECT_EQ((*rounds)[0].round_id(), 3u);
  EXPECT_EQ((*rounds)[1].round_id(), 4u);
  EXPECT_EQ((*store)->Query(1)->status, RoundStatus::kUnknown);
  EXPECT_EQ((*store)->Query(2)->status, RoundStatus::kUnknown);
  EXPECT_EQ((*store)->Query(3)->status, RoundStatus::kFinalized);
  EXPECT_EQ((*store)->Query(4)->status, RoundStatus::kFinalized);
  RemoveTree(dir);
}

// OpenRoundStore stamps the resolved slice into the store (WAL header
// and segments), and an empty directory means no store at all.
TEST(OpenRoundStoreFactory, FillsSliceIdentityAndEmptyDirMeansNoStore) {
  auto none = OpenRoundStore(RoundStoreOptions{}, PartitionSlice{});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(*none, nullptr);

  const std::string dir = TempPath("store_factory");
  RemoveTree(dir);
  PartitionSlice slice;
  slice.index = 1;
  slice.count = 2;
  slice.lo = 8;
  slice.hi = 16;
  RoundStoreOptions options;
  options.dir = dir;
  {
    auto store = OpenRoundStore(options, slice);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto* segmented = dynamic_cast<SegmentedRoundStore*>(store->get());
    ASSERT_NE(segmented, nullptr);
    RoundDelta d;
    d.round_id = 1;
    d.batch_hi = 1;
    d.support_deltas = {{7, 1}};
    ASSERT_TRUE(segmented->AppendDelta(d, nullptr).ok());
    ASSERT_TRUE(segmented->CompactNow().ok());
  }
  RoundStoreOptions same = options;
  same.partition_index = 1;
  same.partition_count = 2;
  same.slice_lo = 8;
  same.slice_width = 8;
  auto reopened = SegmentedRoundStore::Open(same);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rounds = (*reopened)->LoadAll();
  ASSERT_TRUE(rounds.ok());
  ASSERT_EQ(rounds->size(), 1u);
  EXPECT_EQ((*rounds)[0].state.partition_index, 1u);
  EXPECT_EQ((*rounds)[0].state.slice_lo, 8u);
  EXPECT_EQ((*rounds)[0].state.supports.size(), 8u);
  reopened->reset();

  RoundStoreOptions other_lo = same;
  other_lo.slice_lo = 0;
  EXPECT_EQ(SegmentedRoundStore::Open(other_lo).status().code(),
            StatusCode::kFailedPrecondition);
  RemoveTree(dir);
}

// ENOSPC mid-round: the worker sheds durability instead of failing the
// round — the result arrives complete and flagged — and the *next*
// round persists normally again.
TEST(WorkerDegrade, EnospcDegradesRoundNotPipeline) {
  const std::string dir = TempPath("worker_degrade");
  RemoveTree(dir);
  ldp::Grr oracle(3.0, 16);
  auto batch = [&](uint64_t b) {
    Rng rng(0xFEED + b);
    std::vector<ldp::LdpReport> reports;
    for (size_t i = 0; i < 32; ++i) {
      reports.push_back(oracle.Encode(rng.UniformU64(16), &rng));
    }
    return reports;
  };

  StreamingOptions plain;
  plain.batch_size = 32;
  RoundResult expected;
  {
    StreamingCollector w(oracle, plain);
    for (uint64_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(w.Offer(MakePlainBatch(batch(b))).ok());
    }
    auto r = w.FinishRound(128, 0, Calibration::kStandard);
    ASSERT_TRUE(r.ok());
    expected = std::move(*r);
  }

  StreamingOptions durable = plain;
  durable.round_store.dir = dir;
  StreamingCollector w(oracle, durable);
  {
    // Batch 0 becomes durable first; then the disk fills at the very
    // next write. The round degrades mid-round with durable state behind
    // it however the worker groups batches 1-3 into records.
    ASSERT_TRUE(w.Offer(MakePlainBatch(batch(0))).ok());
    uint64_t watermark = 0;
    for (int spin = 0; spin < 2000 && watermark < 1; ++spin) {
      auto lookup = w.store()->Query(0);
      ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
      watermark = lookup->watermark;
      if (watermark < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_GE(watermark, 1u);
    FaultInjector injector;
    FaultRule rule;
    rule.op = FaultOp::kFileWrite;
    rule.skip = 0;  // the next write finds the disk full
    rule.action = FaultAction::FailErrno(ENOSPC);
    injector.AddRule(rule);
    ScopedFaultInjector installed(&injector);
    for (uint64_t b = 1; b < 4; ++b) {
      ASSERT_TRUE(w.Offer(MakePlainBatch(batch(b))).ok());
    }
    auto r = w.FinishRound(128, 0, Calibration::kStandard);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->durability_degraded);
    EXPECT_FALSE(r->durability_warning.empty());
    // (w.durability_degraded() reflects the *current* round — it reset
    // with the round close above; the delivered result carries the flag.)
    // Degraded, not wrong: the numbers are bitwise the plain run's.
    EXPECT_EQ(r->supports, expected.supports);
    EXPECT_EQ(r->estimates, expected.estimates);
  }
  // Disk pressure gone: the next round is durable again.
  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(w.Offer(MakePlainBatch(batch(b))).ok());
  }
  auto r2 = w.FinishRound(128, 0, Calibration::kStandard);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2->durability_degraded);
  EXPECT_FALSE(w.durability_degraded());
  auto lookup = w.store()->Query(1);
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->status, RoundStatus::kFinalized);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Group commit: batches queued behind a gated batch 0 become one record
// ---------------------------------------------------------------------------

constexpr uint64_t kGroupBatches = 6;
constexpr size_t kGroupBatchRows = 32;

std::vector<std::pair<ldp::LdpReport, uint64_t>> GroupDummy(
    const ldp::ScalarFrequencyOracle& o, uint64_t seed) {
  Rng rng(0xD0D0ULL + seed);
  return {{o.Encode(rng.UniformU64(o.domain_size()), &rng), 0}};
}

// Batch b of the grouped round. Batches 1 and 5 carry the planted
// dummies, so one is consumed inside each group.
std::vector<ldp::LdpReport> GroupBatch(const ldp::ScalarFrequencyOracle& o,
                                       uint64_t b) {
  Rng rng(0xC0DE00ULL + b);
  std::vector<ldp::LdpReport> reports;
  for (size_t i = 0; i < kGroupBatchRows; ++i) {
    reports.push_back(o.Encode(rng.UniformU64(o.domain_size()), &rng));
  }
  if (b == 1) reports.push_back(GroupDummy(o, 1)[0].first);
  if (b == 5) reports.push_back(GroupDummy(o, 2)[0].first);
  return reports;
}

// Queues the whole round behind a gated batch 0 — a registration, batches
// 0-3, a second registration, batches 4-5 and the round close — then
// opens the gate. Eight items, well inside the default queue capacity,
// so no producer call blocks while the gate is shut.
Result<RoundResult> RunGroupedRound(const ldp::ScalarFrequencyOracle& o,
                                    const StreamingOptions& options) {
  StreamingCollector w(o, options);
  BatchGate gate;
  w.ExpectDummies(GroupDummy(o, 1));
  for (uint64_t b = 0; b < kGroupBatches; ++b) {
    if (b == 4) w.ExpectDummies(GroupDummy(o, 2));
    ReportBatch batch = MakePlainBatch(GroupBatch(o, b));
    SHUFFLEDP_RETURN_NOT_OK(
        w.Offer(b == 0 ? gate.Hold(std::move(batch)) : std::move(batch)));
  }
  auto closed = w.CloseRound(kGroupBatches * kGroupBatchRows + 2, 0,
                             Calibration::kStandard);
  gate.Open();
  return closed.get();
}

// The WAL's records in log order, read back once the worker is gone.
std::vector<WriteAheadLog::Record> ReadWalRecords(const std::string& dir) {
  WriteAheadLog::Options options;
  options.path = dir + "/wal.log";
  auto wal = WriteAheadLog::Open(options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  if (!wal.ok()) return {};
  return (*wal)->TakeRecovered();
}

RoundDelta DeltaOf(const WriteAheadLog::Record& record) {
  EXPECT_EQ(record.type, WalRecordType::kDelta);
  auto delta = ParseRoundDelta(record.payload);
  EXPECT_TRUE(delta.ok()) << delta.status().ToString();
  return delta.ok() ? *delta : RoundDelta{};
}

uint64_t DummyCount(
    const std::vector<std::tuple<uint64_t, uint64_t, uint64_t>>& entries) {
  uint64_t total = 0;
  for (const auto& entry : entries) total += std::get<2>(entry);
  return total;
}

using SupportDeltas = std::vector<std::pair<uint64_t, uint64_t>>;

// (a) one record per drained run, (c) bitwise equal to a store-less run
// with dummies consumed inside a group, (d) a registration or close
// queued behind a group is its own record, written after the group's.
// `pinned`, when given, holds both groups' exact sparse support deltas.
void ExpectGroupedRound(const ldp::ScalarFrequencyOracle& o,
                        const std::string& name,
                        const std::pair<SupportDeltas, SupportDeltas>*
                            pinned = nullptr) {
  const std::string dir = TempPath(name);
  RemoveTree(dir);
  StreamingOptions plain;
  plain.batch_size = kGroupBatchRows;
  auto expected = RunGroupedRound(o, plain);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected->dummies_recognized, 2u);

  StreamingOptions durable = plain;
  durable.round_store.dir = dir;
  auto got = RunGroupedRound(o, durable);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->supports, expected->supports);
  EXPECT_EQ(got->estimates, expected->estimates);  // exact doubles
  EXPECT_EQ(got->reports_decoded, expected->reports_decoded);
  EXPECT_EQ(got->dummies_recognized, expected->dummies_recognized);
  EXPECT_EQ(got->dummies_expected, expected->dummies_expected);
  EXPECT_FALSE(got->durability_degraded);

  // registration, group [0, 4), registration, group [4, 6), finalize.
  std::vector<WriteAheadLog::Record> records = ReadWalRecords(dir);
  ASSERT_EQ(records.size(), 5u);
  const RoundDelta reg0 = DeltaOf(records[0]);
  const RoundDelta group0 = DeltaOf(records[1]);
  const RoundDelta reg1 = DeltaOf(records[2]);
  const RoundDelta group1 = DeltaOf(records[3]);
  EXPECT_EQ(records[4].type, WalRecordType::kFinalize);
  EXPECT_EQ(reg0.batch_lo, 0u);
  EXPECT_EQ(reg0.batch_hi, 0u);
  EXPECT_EQ(DummyCount(reg0.dummies_registered), 1u);
  EXPECT_EQ(group0.batch_lo, 0u);
  EXPECT_EQ(group0.batch_hi, 4u);
  EXPECT_EQ(group0.rows_delta, 4 * kGroupBatchRows + 1);
  EXPECT_EQ(DummyCount(group0.dummies_consumed), 1u);
  EXPECT_TRUE(group0.dummies_registered.empty());
  EXPECT_EQ(reg1.batch_lo, 4u);
  EXPECT_EQ(reg1.batch_hi, 4u);
  EXPECT_EQ(DummyCount(reg1.dummies_registered), 1u);
  EXPECT_EQ(group1.batch_lo, 4u);
  EXPECT_EQ(group1.batch_hi, kGroupBatches);
  EXPECT_EQ(DummyCount(group1.dummies_consumed), 1u);
  EXPECT_EQ(group0.decoded_delta + group1.decoded_delta,
            expected->reports_decoded);
  if (pinned != nullptr) {
    EXPECT_EQ(group0.support_deltas, pinned->first);
    EXPECT_EQ(group1.support_deltas, pinned->second);
  }

  // The two groups' sparse deltas add up to the round's supports.
  std::vector<uint64_t> summed(expected->supports.size(), 0);
  for (const RoundDelta* group : {&group0, &group1}) {
    for (const auto& [index, count] : group->support_deltas) {
      ASSERT_LT(index, summed.size());
      summed[index] += count;
    }
  }
  EXPECT_EQ(summed, expected->supports);

  // And the store replays them into the finalized round.
  StreamingCollector reopened(o, durable);
  auto rounds = reopened.store()->LoadAll();
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
  ASSERT_EQ(rounds->size(), 1u);
  EXPECT_TRUE((*rounds)[0].finalized);
  EXPECT_EQ((*rounds)[0].batches_consumed, kGroupBatches);
  EXPECT_EQ((*rounds)[0].journal.supports, expected->supports);
  RemoveTree(dir);
}

TEST(GroupCommit, DrainedRunIsOneRecordGrr) {
  // The group delta is a diff of the counter's counts against the shadow
  // of what the store has seen, for GRR as for every oracle. The sparse
  // deltas below are the bytes an earlier kept-row histogram wrote; the
  // two captures must stay indistinguishable on disk.
  ldp::Grr oracle(3.0, 16);
  const std::pair<SupportDeltas, SupportDeltas> pinned = {
      {{0, 8}, {1, 9}, {2, 11}, {3, 15}, {4, 8}, {5, 11}, {6, 8}, {7, 6},
       {8, 7}, {9, 7}, {10, 4}, {11, 11}, {12, 5}, {13, 5}, {14, 7},
       {15, 6}},
      {{0, 6}, {1, 1}, {2, 3}, {3, 3}, {4, 5}, {5, 2}, {6, 7}, {7, 6},
       {8, 7}, {9, 5}, {10, 6}, {11, 4}, {12, 2}, {13, 3}, {14, 2},
       {15, 2}},
  };
  ExpectGroupedRound(oracle, "group_grr", &pinned);
}

TEST(GroupCommit, DrainedRunIsOneRecordLocalHash) {
  // Hash oracle: the group delta is a diff of the counter's counts
  // against the shadow of what the store has seen.
  std::unique_ptr<ldp::LocalHash> oracle = ldp::MakeOlh(2.0, 64);
  ExpectGroupedRound(*oracle, "group_olh");
}

// (b) a backlog deeper than the queue splits into contiguous records of
// at most queue_capacity batches each.
TEST(GroupCommit, RecordsNeverSpanMoreThanQueueCapacity) {
  const std::string dir = TempPath("group_capacity");
  RemoveTree(dir);
  ldp::Grr oracle(3.0, 16);
  constexpr uint64_t kBatches = 12;
  StreamingOptions plain;
  plain.batch_size = kGroupBatchRows;
  plain.queue_capacity = 4;
  auto run = [&](const StreamingOptions& options) -> Result<RoundResult> {
    StreamingCollector w(oracle, options);
    BatchGate gate;
    for (uint64_t b = 0; b < kBatches; ++b) {
      ReportBatch batch = MakePlainBatch(GroupBatch(oracle, b));
      SHUFFLEDP_RETURN_NOT_OK(
          w.Offer(b == 0 ? gate.Hold(std::move(batch)) : std::move(batch)));
      // Batches 1-4 fill the queue behind the held batch 0; from then on
      // the producer runs into backpressure, so open the gate.
      if (b == 4) gate.Open();
    }
    return w.FinishRound(kBatches * kGroupBatchRows + 2, 0,
                         Calibration::kStandard);
  };
  auto expected = run(plain);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  StreamingOptions durable = plain;
  durable.round_store.dir = dir;
  auto got = run(durable);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->supports, expected->supports);
  EXPECT_EQ(got->estimates, expected->estimates);

  std::vector<WriteAheadLog::Record> records = ReadWalRecords(dir);
  ASSERT_GE(records.size(), 4u);  // >= 12 / 4 groups + the finalize
  EXPECT_EQ(records.back().type, WalRecordType::kFinalize);
  records.pop_back();
  uint64_t watermark = 0;
  for (const WriteAheadLog::Record& record : records) {
    const RoundDelta delta = DeltaOf(record);
    EXPECT_EQ(delta.batch_lo, watermark);
    EXPECT_GT(delta.batch_hi, delta.batch_lo);
    EXPECT_LE(delta.batch_hi - delta.batch_lo, plain.queue_capacity);
    watermark = delta.batch_hi;
  }
  EXPECT_EQ(watermark, kBatches);
  // The four batches queued behind the gate fill the first group to the
  // bound exactly: it is written at the cap, not at an empty queue.
  EXPECT_EQ(DeltaOf(records.front()).batch_hi, plain.queue_capacity);
  RemoveTree(dir);
}

// (e) a worker shut down cleanly mid-round leaves every batch it
// consumed durable: the consumer never exits with an unsynced group.
TEST(GroupCommit, CleanShutdownLeavesTheFullWatermark) {
  ldp::Grr grr(3.0, 16);
  std::unique_ptr<ldp::LocalHash> olh = ldp::MakeOlh(2.0, 64);
  for (const ldp::ScalarFrequencyOracle* o :
       {static_cast<const ldp::ScalarFrequencyOracle*>(&grr),
        static_cast<const ldp::ScalarFrequencyOracle*>(olh.get())}) {
    const std::string dir = TempPath("group_shutdown");
    RemoveTree(dir);
    StreamingOptions plain;
    plain.batch_size = kGroupBatchRows;
    RoundResult expected;
    {
      StreamingCollector w(*o, plain);
      for (uint64_t b = 0; b < kGroupBatches; ++b) {
        ASSERT_TRUE(w.Offer(MakePlainBatch(GroupBatch(*o, b))).ok());
      }
      auto r = w.FinishRound(1, 0, Calibration::kNone);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected = std::move(*r);
    }

    StreamingOptions durable = plain;
    durable.round_store.dir = dir;
    {
      StreamingCollector w(*o, durable);
      BatchGate gate;
      for (uint64_t b = 0; b < kGroupBatches; ++b) {
        ReportBatch batch = MakePlainBatch(GroupBatch(*o, b));
        ASSERT_TRUE(
            w.Offer(b == 0 ? gate.Hold(std::move(batch)) : std::move(batch))
                .ok());
      }
      gate.Open();
    }  // destroyed mid-round: the consumer drains the queue and exits

    StreamingCollector reopened(*o, durable);
    auto rounds = reopened.store()->LoadAll();
    ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
    ASSERT_EQ(rounds->size(), 1u);
    EXPECT_FALSE((*rounds)[0].finalized);
    EXPECT_EQ((*rounds)[0].batches_consumed, kGroupBatches);
    EXPECT_EQ((*rounds)[0].state.supports, expected.supports);
    EXPECT_EQ((*rounds)[0].state.reports_decoded, expected.reports_decoded);
    EXPECT_EQ(ReadWalRecords(dir).size(), 1u) << "one group, one record";
    RemoveTree(dir);
  }
}

// ---------------------------------------------------------------------------
// Worker recovery through the store
// ---------------------------------------------------------------------------

// Batch b of a self-seeded round: any suffix replays bit-identically,
// as the protocols' fixed-chunk encode phases do.
std::vector<ldp::LdpReport> SeededBatch(const ldp::ScalarFrequencyOracle& o,
                                        uint64_t b) {
  Rng rng(0xC0FFEE + b);
  std::vector<ldp::LdpReport> reports;
  for (size_t i = 0; i < 128; ++i) {
    reports.push_back(o.Encode(rng.UniformU64(o.domain_size()), &rng));
  }
  return reports;
}

// Group deltas are diffs against the store's shadow of the supports for
// every oracle: a worker killed mid-round and recovered from the store's
// live state restores that shadow and finishes bitwise identical to an
// uninterrupted run. SOLH supports many values per report; GRR exactly
// one.
TEST(WorkerRecovery, KillMidRoundRecoversBitwiseLocalHash) {
  ldp::LocalHash solh(2.0, 300, 8, "SOLH");
  ldp::Grr grr(2.0, 300);
  for (const ldp::ScalarFrequencyOracle* o :
       {static_cast<const ldp::ScalarFrequencyOracle*>(&solh),
        static_cast<const ldp::ScalarFrequencyOracle*>(&grr)}) {
    SCOPED_TRACE(o->Name());
    const std::string dir = TempPath("worker_recover_" + o->Name());
    RemoveTree(dir);
    constexpr uint64_t kBatches = 40;
    const uint64_t n = kBatches * 128;
    StreamingOptions plain;
    plain.batch_size = 128;
    RoundResult expected;
    {
      StreamingCollector w(*o, plain);
      for (uint64_t b = 0; b < kBatches; ++b) {
        ASSERT_TRUE(w.Offer(MakePlainBatch(SeededBatch(*o, b))).ok());
      }
      auto r = w.FinishRound(n, 0, Calibration::kStandard);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected = std::move(*r);
    }

    StreamingOptions durable = plain;
    durable.round_store.dir = dir;
    {
      StreamingCollector w(*o, durable);
      for (uint64_t b = 0; b < 23; ++b) {
        ASSERT_TRUE(w.Offer(MakePlainBatch(SeededBatch(*o, b))).ok());
      }
    }  // killed mid-round

    StreamingCollector w(*o, durable);
    auto rounds = w.store()->LoadAll();
    ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
    ASSERT_EQ(rounds->size(), 1u);
    ASSERT_FALSE((*rounds)[0].finalized);
    auto watermark = w.RecoverRound((*rounds)[0].state);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_GT(*watermark, 0u);
    EXPECT_LE(*watermark, 23u);
    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE(w.Offer(MakePlainBatch(SeededBatch(*o, b))).ok());
    }
    auto r = w.FinishRound(n, 0, Calibration::kStandard);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->supports, expected.supports);
    EXPECT_EQ(r->estimates, expected.estimates);  // exact doubles
    EXPECT_EQ(r->reports_decoded, expected.reports_decoded);
    EXPECT_EQ(r->reports_invalid, expected.reports_invalid);
    RemoveTree(dir);
  }
}

// Recovery restores into a fresh worker only, and only state written
// for the worker's own slice.
TEST(WorkerRecovery, RefusesAfterIngestAndForeignSlices) {
  const std::string dir = TempPath("worker_recover_refuse");
  RemoveTree(dir);
  ldp::Grr grr(2.0, 16);
  StreamingOptions durable;
  durable.batch_size = 128;
  durable.round_store.dir = dir;
  {
    StreamingCollector w(grr, durable);
    ASSERT_TRUE(w.Offer(MakePlainBatch(SeededBatch(grr, 0))).ok());
  }
  StreamingCollector w(grr, durable);
  auto rounds = w.store()->LoadAll();
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
  ASSERT_EQ(rounds->size(), 1u);
  const CheckpointState state = (*rounds)[0].state;

  CheckpointState foreign = state;
  foreign.partition_index = 1;
  foreign.partition_count = 2;
  EXPECT_EQ(w.RecoverRound(foreign).status().code(),
            StatusCode::kFailedPrecondition);
  RoundJournal journal;
  journal.partition_index = 1;
  journal.partition_count = 2;
  journal.supports.assign(16, 0);
  EXPECT_EQ(w.RecoverFinalizedRound(journal).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(w.Offer(MakePlainBatch(SeededBatch(grr, 1))).ok());
  EXPECT_EQ(w.RecoverRound(state).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.RecoverFinalizedRound(RoundJournal{}).status().code(),
            StatusCode::kFailedPrecondition);
  RemoveTree(dir);
}

// A store directory that cannot be created (a parent is a regular file:
// ENOTDIR, whoever runs the test) poisons the worker at construction, so
// its first Offer and its round close report the error instead of
// ingesting a round that cannot persist.
TEST(WorkerRecovery, UnopenableStoreFailsTheFirstOffer) {
  const std::string root = TempPath("worker_unopenable");
  RemoveTree(root);
  ASSERT_EQ(std::system(("mkdir -p '" + root + "'").c_str()), 0);
  WriteRaw(root + "/file", {1});
  ldp::Grr grr(2.0, 16);
  StreamingOptions options;
  options.batch_size = 8;
  options.round_store.dir = root + "/file/store";
  StreamingCollector w(grr, options);
  EXPECT_EQ(w.store(), nullptr);
  Status offered = w.Offer(MakePlainBatch(SeededBatch(grr, 0)));
  ASSERT_FALSE(offered.ok());
  EXPECT_EQ(offered.code(), StatusCode::kInternal);
  EXPECT_NE(offered.message().find(root + "/file/store"), std::string::npos)
      << offered.ToString();
  auto result = w.FinishRound(8, 0, Calibration::kStandard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  RemoveTree(root);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
