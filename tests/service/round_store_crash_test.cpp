// Crash-point-exhaustive recovery for the durable round store.
//
// The harness first runs a deterministic two-round workload fault-free
// and counts every storage-site evaluation (WAL append, fsync barrier,
// segment write/rename, log truncation). Then, for *every* point k in
// that timeline, it re-runs the workload in a fresh directory with the
// storage kill switch armed at k — from that evaluation on, nothing
// reaches disk, exactly as after a power cut — recovers through the
// store like the server does (LoadAll → journal replay / RecoverRound →
// batch replay from the watermark), and asserts both rounds' results
// are bitwise identical to the uninterrupted run. The sweep covers
// ingest, compaction, finalize, and retention-GC windows because the
// workload's knobs are chosen so each happens several times within the
// timeline.
//
// The worker group-commits: batches already queued when the consumer
// finishes one are folded into a single WAL record. Ungated, how many
// batches a record covers depends on timing; the gated sweep holds each
// round's first batch until the rest of the round is queued, so every
// record covers a whole round and every run kills at the write and at
// the fsync of a multi-batch record.

#include <gtest/gtest.h>

#include <cerrno>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch_gate.h"
#include "ldp/grr.h"
#include "service/fault_injection.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

constexpr uint64_t kRound0Batches = 6;
constexpr uint64_t kRound1Batches = 5;
constexpr size_t kBatchSize = 64;
constexpr uint64_t kDomain = 32;

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "shuffledp_" + name;
}

void RemoveTree(const std::string& dir) {
  // The store writes a flat directory: wal.log + round-<id>.seg (+ the
  // occasional .tmp a simulated crash left behind).
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

std::vector<ldp::LdpReport> RoundBatch(const ldp::ScalarFrequencyOracle& o,
                                       uint64_t round, uint64_t b) {
  Rng rng(0xBEEF0000ULL + round * 1000 + b);
  std::vector<ldp::LdpReport> reports;
  reports.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    reports.push_back(o.Encode(rng.UniformU64(o.domain_size()), &rng));
  }
  return reports;
}

// Spot-check dummies planted in round 0: registered up front, their
// exact reports ride inside batch 0 so the strip recognizes all three.
std::vector<std::pair<ldp::LdpReport, uint64_t>> RoundDummies(
    const ldp::ScalarFrequencyOracle& o) {
  Rng rng(0xD00DULL);
  std::vector<std::pair<ldp::LdpReport, uint64_t>> dummies;
  for (int i = 0; i < 3; ++i) {
    dummies.emplace_back(o.Encode(rng.UniformU64(o.domain_size()), &rng), 0);
  }
  return dummies;
}

uint64_t BatchCount(uint64_t round) {
  return round == 0 ? kRound0Batches : kRound1Batches;
}

// Feeds one round (starting at `from_batch`) into the worker and closes
// it. Registration only happens at the true round start — recovery
// skips it when the registration record was already durable. `gated`
// holds the first batch until the rest are queued (one group record).
Result<RoundResult> RunRound(StreamingCollector* w,
                             const ldp::ScalarFrequencyOracle& o,
                             uint64_t round, uint64_t from_batch,
                             bool register_dummies, bool gated) {
  if (round == 0 && register_dummies) {
    w->ExpectDummies(RoundDummies(o));
  }
  BatchGate gate;
  for (uint64_t b = from_batch; b < BatchCount(round); ++b) {
    std::vector<ldp::LdpReport> reports = RoundBatch(o, round, b);
    if (round == 0 && b == 0) {
      for (const auto& [report, tag] : RoundDummies(o)) {
        reports.push_back(report);
      }
    }
    ReportBatch batch = MakePlainBatch(std::move(reports));
    if (gated && b == from_batch) batch = gate.Hold(std::move(batch));
    SHUFFLEDP_RETURN_NOT_OK(w->Offer(std::move(batch)));
  }
  gate.Open();
  return w->FinishRound(BatchCount(round) * kBatchSize, 0,
                        Calibration::kStandard);
}

void ExpectBitwise(const RoundResult& got, const RoundResult& want,
                   const std::string& tag) {
  EXPECT_EQ(got.supports, want.supports) << tag;
  EXPECT_EQ(got.estimates, want.estimates) << tag;  // exact doubles
  EXPECT_EQ(got.reports_decoded, want.reports_decoded) << tag;
  EXPECT_EQ(got.reports_invalid, want.reports_invalid) << tag;
  EXPECT_EQ(got.dummies_recognized, want.dummies_recognized) << tag;
  EXPECT_EQ(got.dummies_expected, want.dummies_expected) << tag;
  EXPECT_EQ(got.spot_check_passed, want.spot_check_passed) << tag;
}

StreamingOptions DurableOptions(const std::string& dir,
                                uint64_t retain_rounds) {
  StreamingOptions opts;
  opts.batch_size = kBatchSize;
  opts.round_store.dir = dir;
  opts.round_store.retain_rounds = retain_rounds;
  // Small cadences so the two-round timeline crosses several fsync
  // barriers, several compactions, and at least one retention GC.
  opts.round_store.compact_every_records = 4;
  return opts;
}

// Runs the workload until the first failure (the simulated crash).
// Returns how far it got; any error is expected once the kill fires.
void RunWorkloadToCrash(const ldp::ScalarFrequencyOracle& o,
                        const StreamingOptions& opts, bool gated) {
  StreamingCollector w(o, opts);
  for (uint64_t round = 0; round < 2; ++round) {
    Result<RoundResult> r = RunRound(&w, o, round, 0,
                                     /*register_dummies=*/round == 0, gated);
    if (!r.ok()) return;  // crashed mid-round: the worker dies here
  }
}

// Server-style recovery: open the store via a fresh worker, LoadAll,
// replay the finalized journal and/or the live round, then finish
// whatever the crash interrupted. Returns both rounds' results.
void RecoverAndFinish(const ldp::ScalarFrequencyOracle& o,
                      const StreamingOptions& opts,
                      const RoundResult& expected0,
                      const RoundResult& expected1,
                      const std::string& tag, bool gated) {
  StreamingCollector w(o, opts);
  std::shared_ptr<RoundStore> store = w.store();
  ASSERT_NE(store, nullptr) << tag;
  auto loaded = store->LoadAll();
  ASSERT_TRUE(loaded.ok()) << tag << ": " << loaded.status().ToString();

  const StoredRound* live = nullptr;
  std::map<uint64_t, const StoredRound*> finalized;
  for (const StoredRound& round : *loaded) {
    if (round.finalized) {
      finalized[round.round_id()] = &round;
    } else {
      ASSERT_EQ(live, nullptr) << tag << ": two live rounds recovered";
      live = &round;
    }
  }

  bool have0 = false;
  bool have1 = false;
  RoundResult result0;
  RoundResult result1;

  // Finalized rounds replay through the pure function; the *newest* one
  // goes through the worker when no live round needs it, so the round
  // id advances exactly as the server's recovery does.
  if (!finalized.empty()) {
    const uint64_t newest = finalized.rbegin()->first;
    for (const auto& [id, round] : finalized) {
      ASSERT_LE(id, 1u) << tag;
      const RoundJournal& j = round->journal;
      RoundResult replay;
      if (id == newest && live == nullptr) {
        auto r = w.RecoverFinalizedRound(j);
        ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
        replay = std::move(*r);
      } else {
        replay = FinalizeRoundResult(
            o, j.supports, j.n, j.n_fake,
            static_cast<Calibration>(j.calibration), j.reports_decoded,
            j.reports_invalid, j.dummies_recognized, j.dummies_expected);
      }
      if (id == 0) {
        result0 = std::move(replay);
        have0 = true;
      } else {
        result1 = std::move(replay);
        have1 = true;
      }
    }
  }

  // The live round restores into the worker and replays its remaining
  // batches from the durable watermark.
  if (live != nullptr) {
    const uint64_t id = live->state.round_id;
    ASSERT_LE(id, 1u) << tag;
    auto watermark = w.RecoverRound(live->state);
    ASSERT_TRUE(watermark.ok()) << tag << ": "
                                << watermark.status().ToString();
    EXPECT_EQ(*watermark, live->batches_consumed) << tag;
    // Re-register the spot-check dummies only when their registration
    // record never became durable.
    const bool reregister = id == 0 && live->state.dummies_expected == 0;
    auto r = RunRound(&w, o, id, *watermark, reregister, gated);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    if (id == 0) {
      result0 = std::move(*r);
      have0 = true;
    } else {
      result1 = std::move(*r);
      have1 = true;
    }
  }

  // Anything with no durable trace re-runs from scratch. Round 0 can
  // run on this worker only if its round id still points there;
  // otherwise (round 0 retention-GC'd while round 1 survived) it
  // re-runs on a store-less worker — the result is a pure function of
  // the input stream either way.
  if (!have0) {
    if (w.round_id() == 0) {
      auto r = RunRound(&w, o, 0, 0, /*register_dummies=*/true, gated);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
      result0 = std::move(*r);
    } else {
      StreamingOptions plain;
      plain.batch_size = kBatchSize;
      StreamingCollector fresh(o, plain);
      auto r = RunRound(&fresh, o, 0, 0, /*register_dummies=*/true, gated);
      ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
      result0 = std::move(*r);
    }
    have0 = true;
  }
  if (!have1) {
    ASSERT_EQ(w.round_id(), 1u) << tag;
    auto r = RunRound(&w, o, 1, 0, /*register_dummies=*/false, gated);
    ASSERT_TRUE(r.ok()) << tag << ": " << r.status().ToString();
    result1 = std::move(*r);
    have1 = true;
  }

  ExpectBitwise(result0, expected0, tag + " round0");
  ExpectBitwise(result1, expected1, tag + " round1");
}

void SweepEveryCrashPoint(uint64_t retain_rounds, const std::string& name,
                          bool gated) {
  ldp::Grr oracle(3.0, kDomain);

  // Ground truth: plain in-memory run, no store at all.
  RoundResult expected0;
  RoundResult expected1;
  {
    StreamingOptions plain;
    plain.batch_size = kBatchSize;
    StreamingCollector w(oracle, plain);
    auto r0 = RunRound(&w, oracle, 0, 0, true, gated);
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    expected0 = std::move(*r0);
    auto r1 = RunRound(&w, oracle, 1, 0, false, gated);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    expected1 = std::move(*r1);
  }

  // Fault-free durable run under a counting injector: its evaluation
  // total enumerates every crash point the kill switch can target, and
  // its results double-check the store changes nothing when healthy.
  const std::string base = TempDirFor(name);
  uint64_t crash_points = 0;
  {
    RemoveTree(base + "_free");
    FaultInjector counting;
    ScopedFaultInjector installed(&counting);
    StreamingOptions opts = DurableOptions(base + "_free", retain_rounds);
    StreamingCollector w(oracle, opts);
    auto r0 = RunRound(&w, oracle, 0, 0, true, gated);
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    ExpectBitwise(*r0, expected0, "fault-free round0");
    auto r1 = RunRound(&w, oracle, 1, 0, false, gated);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ExpectBitwise(*r1, expected1, "fault-free round1");
    crash_points = counting.storage_evaluations();
    if (gated) {
      // Registration, round 0's six batches, its finalize, round 1's
      // five batches, its finalize: each round's batches are one record.
      auto* segmented = dynamic_cast<SegmentedRoundStore*>(w.store().get());
      ASSERT_NE(segmented, nullptr);
      EXPECT_EQ(segmented->next_lsn(), 6u);
    }
  }
  // The timeline must actually cross WAL appends, fsync barriers, and
  // compactions — a tiny count means the store silently stopped
  // persisting and the sweep below proves nothing.
  ASSERT_GE(crash_points, gated ? 12u : 20u);

  for (uint64_t k = 1; k <= crash_points; ++k) {
    const std::string tag = name + " kill@" + std::to_string(k);
    const std::string dir = base + "_k" + std::to_string(k);
    RemoveTree(dir);
    StreamingOptions opts = DurableOptions(dir, retain_rounds);
    {
      FaultInjector injector;
      injector.ArmStorageKill(k, EIO);
      ScopedFaultInjector installed(&injector);
      RunWorkloadToCrash(oracle, opts, gated);
      // Worker destroyed with the kill still armed: nothing after the
      // kill point ever reached disk.
    }
    RecoverAndFinish(oracle, opts, expected0, expected1, tag, gated);
    RemoveTree(dir);
  }
  RemoveTree(base + "_free");
}

TEST(RoundStoreCrash, EveryCrashPointRecoversBitwise) {
  SweepEveryCrashPoint(/*retain_rounds=*/2, "crash_sweep", /*gated=*/false);
}

// retain_rounds = 1 moves the retention GC inside the crash window: the
// sweep also covers killing between "round 0 expired" and "round 1
// still live", where recovery must re-run round 0 from scratch.
TEST(RoundStoreCrash, SweepWithAggressiveRetention) {
  SweepEveryCrashPoint(/*retain_rounds=*/1, "crash_sweep_gc",
                       /*gated=*/false);
}

// Every round's batches form one multi-batch group record, so each kill
// point around a record write or fsync lands inside a group commit.
TEST(RoundStoreCrash, GatedSweepKillsInsideMultiBatchRecords) {
  SweepEveryCrashPoint(/*retain_rounds=*/2, "crash_sweep_gated",
                       /*gated=*/true);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
