// Shard-merge order independence: collection with a fixed seed must
// produce *bitwise identical* estimates no matter how many workers the
// pool has (SHUFFLEDP_THREADS ∈ {1, 4, 16} — modeled here as explicit
// ThreadPool sizes, which is what that env var feeds), and repeated runs
// with the same seed must be bitwise stable. This is what makes the
// streaming fast paths trustworthy: parallelism must never leak into the
// randomized output.
//
// The guarantees under test: fixed-size encode chunks (ForChunks) pin the
// per-chunk RNG seeds, integer shard counters make accumulation
// order-free, and Finalize() merges shard slices in shard order.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/shuffle_dp.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "service/streaming_collector.h"
#include "shuffle/peos.h"
#include "shuffle/sequential_shuffle.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {
namespace {

std::vector<uint64_t> SkewedValues(uint64_t n, uint64_t d) {
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = (i < n / 2) ? 0 : 1 + (i % (d - 1));
  }
  return values;
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(StreamingDeterminism, SequentialShuffleAcrossPoolSizes) {
  const uint64_t n = 600, d = 16;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);

  std::vector<std::vector<double>> runs;
  std::vector<uint64_t> report_counts;
  for (unsigned threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    shuffle::SequentialShuffleConfig config;
    config.num_shufflers = 3;
    config.fake_reports_total = 90;
    config.spot_check_dummies = 10;
    config.pool = &pool;
    config.streaming.batch_size = 128;  // force multiple batches
    crypto::SecureRandom rng(uint64_t{777});
    auto result = RunSequentialShuffle(oracle, values, config, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->spot_check_passed);
    runs.push_back(result->estimates);
    report_counts.push_back(result->reports_at_server);
  }
  EXPECT_TRUE(BitwiseEqual(runs[0], runs[1]))
      << "SS estimates differ between 1 and 4 threads";
  EXPECT_TRUE(BitwiseEqual(runs[0], runs[2]))
      << "SS estimates differ between 1 and 16 threads";
  EXPECT_EQ(report_counts[0], report_counts[1]);
  EXPECT_EQ(report_counts[0], report_counts[2]);
}

TEST(StreamingDeterminism, SequentialShuffleSerialMatchesPooled) {
  // pool == nullptr must take the exact same chunk boundaries.
  const uint64_t n = 500, d = 8;
  ldp::Grr oracle(2.0, d);
  auto values = SkewedValues(n, d);
  std::vector<std::vector<double>> runs;
  for (bool pooled : {false, true}) {
    ThreadPool pool(3);
    shuffle::SequentialShuffleConfig config;
    config.num_shufflers = 2;
    config.fake_reports_total = 50;
    config.pool = pooled ? &pool : nullptr;
    crypto::SecureRandom rng(uint64_t{4242});
    auto result = RunSequentialShuffle(oracle, values, config, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    runs.push_back(result->estimates);
  }
  EXPECT_TRUE(BitwiseEqual(runs[0], runs[1]))
      << "serial and pooled SS runs disagree";
}

TEST(StreamingDeterminism, PeosCollectAcrossPoolSizes) {
  const uint64_t n = 240, d = 16;
  ldp::Grr oracle(3.0, d);
  auto values = SkewedValues(n, d);

  std::vector<std::vector<double>> runs;
  for (unsigned threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    shuffle::PeosConfig config;
    config.num_shufflers = 3;
    config.fake_reports = 60;
    config.paillier_bits = 512;  // keep the crypto cheap for the test
    config.pool = &pool;
    config.streaming.batch_size = 64;
    crypto::SecureRandom rng(uint64_t{991});
    auto result = shuffle::RunPeos(oracle, values, config, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->reports_decoded + result->reports_invalid, n + 60);
    runs.push_back(result->estimates);
  }
  EXPECT_TRUE(BitwiseEqual(runs[0], runs[1]))
      << "PEOS estimates differ between 1 and 4 threads";
  EXPECT_TRUE(BitwiseEqual(runs[0], runs[2]))
      << "PEOS estimates differ between 1 and 16 threads";
}

// The per-row closure shape ordinal batches used to travel in (and the
// in-process reference of the benchmark still builds): one UnpackOrdinal
// per row behind a decode closure, padding dropped as invalid.
ReportBatch ClosureOrdinalBatch(const ldp::ScalarFrequencyOracle& oracle,
                                std::vector<uint64_t> batch) {
  auto ordinals = std::make_shared<std::vector<uint64_t>>(std::move(batch));
  ReportBatch report_batch;
  report_batch.count = ordinals->size();
  report_batch.decode = [ordinals, &oracle](uint64_t i) -> Result<DecodedRow> {
    DecodedRow row;
    auto rep = oracle.UnpackOrdinal((*ordinals)[i]);
    if (!rep.ok()) return row;
    row.report = *rep;
    row.valid = true;
    return row;
  };
  return report_batch;
}

// One round of uniform ordinals over the padded space (padding hits
// included) plus one registered tag-0 dummy planted in batch 2.
Result<RoundResult> RunOrdinalRound(
    const ldp::ScalarFrequencyOracle& oracle, const StreamingOptions& options,
    bool closures) {
  StreamingCollector collector(oracle, options);
  Rng dummy_rng(99);
  const ldp::LdpReport dummy = oracle.Encode(3, &dummy_rng);
  collector.ExpectDummy(dummy, 0);
  const unsigned bits = oracle.PackedBits();
  for (uint64_t b = 0; b < 6; ++b) {
    Rng rng(0xBA7C4 + b);
    std::vector<uint64_t> ordinals;
    for (int i = 0; i < 200; ++i) {
      ordinals.push_back(rng.UniformU64(uint64_t{1} << bits));
    }
    if (b == 2) ordinals.push_back(oracle.PackOrdinal(dummy));
    SHUFFLEDP_RETURN_NOT_OK(collector.Offer(
        closures ? ClosureOrdinalBatch(oracle, std::move(ordinals))
                 : MakeOrdinalBatch(std::move(ordinals))));
  }
  return collector.FinishRound(1200, 300, Calibration::kOrdinal);
}

void ExpectSameRound(const RoundResult& got, const RoundResult& want) {
  EXPECT_EQ(got.supports, want.supports);
  EXPECT_TRUE(BitwiseEqual(got.estimates, want.estimates));
  EXPECT_EQ(got.reports_decoded, want.reports_decoded);
  EXPECT_EQ(got.reports_invalid, want.reports_invalid);
  EXPECT_EQ(got.dummies_recognized, want.dummies_recognized);
  EXPECT_EQ(got.dummies_expected, want.dummies_expected);
  EXPECT_EQ(got.spot_check_passed, want.spot_check_passed);
}

// MakeOrdinalBatch's single pass and the per-row closure give bitwise the
// same round, pooled or serial, with or without a round store.
TEST(StreamingDeterminism, OrdinalBatchMatchesThePerRowClosure) {
  ldp::Grr grr(2.0, 100);                // 7-bit ordinals: 28 padding values
  ldp::LocalHash olh(2.0, 64, 6, "OLH");  // values 6 and 7 are padding
  ThreadPool pool(3);
  for (const ldp::ScalarFrequencyOracle* oracle :
       {static_cast<const ldp::ScalarFrequencyOracle*>(&grr),
        static_cast<const ldp::ScalarFrequencyOracle*>(&olh)}) {
    SCOPED_TRACE(oracle->Name());
    StreamingOptions options;
    options.pool = &pool;
    auto want = RunOrdinalRound(*oracle, options, /*closures=*/true);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_GT(want->reports_invalid, 0u);  // padding hits were dropped
    EXPECT_EQ(want->dummies_recognized, 1u);
    EXPECT_TRUE(want->spot_check_passed);

    auto pooled = RunOrdinalRound(*oracle, options, /*closures=*/false);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ExpectSameRound(*pooled, *want);

    StreamingOptions serial;
    auto got = RunOrdinalRound(*oracle, serial, /*closures=*/false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRound(*got, *want);

    StreamingOptions durable;
    durable.round_store.dir = ::testing::TempDir() + "ordinal_batch_" +
                              oracle->Name() + "_" +
                              std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(durable.round_store.dir, ec);
    got = RunOrdinalRound(*oracle, durable, /*closures=*/false);
    std::filesystem::remove_all(durable.round_store.dir, ec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRound(*got, *want);
  }
}

TEST(StreamingDeterminism, CollectStreamingAcrossPoolSizesAndRepeats) {
  const uint64_t n = 40000, d = 256;
  core::PrivacyGoals goals;
  auto values = SkewedValues(n, d);

  std::vector<std::vector<double>> runs;
  for (unsigned threads : {1u, 4u, 16u}) {
    ThreadPool pool(threads);
    core::ShuffleDpCollector::Options options;
    options.pool = &pool;
    options.streaming.batch_size = 2048;
    options.streaming.num_shards = 32;
    auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
    ASSERT_TRUE(collector.ok()) << collector.status().ToString();
    // Two repeats per pool size: bitwise-stable reruns.
    for (int rep = 0; rep < 2; ++rep) {
      Rng rng(20260729);
      auto round = (*collector)->CollectStreaming(values, &rng);
      ASSERT_TRUE(round.ok()) << round.status().ToString();
      runs.push_back(round->estimates);
    }
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(runs[0], runs[i]))
        << "CollectStreaming run " << i << " differs from run 0";
  }
}

TEST(StreamingDeterminism, NestedProtocolRunFromPoolWorkerCompletes) {
  // A protocol run launched from inside one of its own pool's tasks
  // (single worker — the hardest case) must complete: the collector
  // detects the nested construction and processes serially instead of
  // waiting on pool slots the blocked caller occupies.
  ThreadPool pool(1);
  Status status = Status::OK();
  std::vector<double> estimates;
  pool.Submit([&] {
    ldp::Grr oracle(2.0, 8);
    auto values = SkewedValues(200, 8);
    shuffle::SequentialShuffleConfig config;
    config.num_shufflers = 2;
    config.fake_reports_total = 20;
    config.pool = &pool;
    config.streaming.batch_size = 32;
    config.streaming.queue_capacity = 2;  // force backpressure too
    crypto::SecureRandom rng(uint64_t{55});
    auto result = RunSequentialShuffle(oracle, values, config, &rng);
    if (result.ok()) {
      estimates = result->estimates;
    } else {
      status = result.status();
    }
  });
  pool.WaitIdle();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(estimates.size(), 8u);
}

TEST(StreamingDeterminism, MultiRoundReuseIsIndependentAndStable) {
  // FinishRound resets the collector; identical inputs in round 1 and
  // round 2 must produce identical outputs.
  ldp::Grr oracle(2.0, 32);
  ThreadPool pool(4);
  StreamingOptions opts;
  opts.batch_size = 100;
  opts.pool = &pool;
  StreamingCollector collector(oracle, opts);

  std::vector<ldp::LdpReport> reports;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    reports.push_back(oracle.Encode(i % 32, &rng));
  }
  std::vector<std::vector<uint64_t>> supports;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(collector.OfferReports(reports).ok());
    auto result =
        collector.FinishRound(reports.size(), 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->reports_decoded, reports.size());
    supports.push_back(result->supports);
  }
  EXPECT_EQ(supports[0], supports[1]);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
