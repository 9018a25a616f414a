// Loopback endpoint end-to-end: the networked collection path must be
// indistinguishable — bitwise — from the in-process streaming path, at
// n >= 10^5, and a server killed mid-round must recover from its round
// store and converge to the identical result.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/shuffle_dp.h"
#include "ldp/grr.h"
#include "service/coordinator.h"
#include "service/transport.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

// A single remote endpoint is the 1-partition fleet: the endpoint and
// the routing client share one PartitionMap (by value for GRR, by client
// for SOLH) and the round runs through CollectDistributed.
struct SingleEndpoint {
  std::unique_ptr<CollectionServer> server;
  std::unique_ptr<PartitionRoutingClient> routing;
  std::unique_ptr<MergeCoordinator> coordinator;
};

SingleEndpoint StartSingleEndpoint(const core::ShuffleDpCollector& collector,
                                   const StreamingOptions& streaming,
                                   const std::string& host = "127.0.0.1") {
  SingleEndpoint endpoint;
  const PartitionMode mode = collector.plan().use_grr
                                 ? PartitionMode::kByValue
                                 : PartitionMode::kByClient;
  auto map = PartitionMap::Create(collector.oracle(), mode, 1);
  EXPECT_TRUE(map.ok()) << map.status().ToString();
  if (!map.ok()) return endpoint;
  CollectionServerOptions server_options;
  server_options.streaming = streaming;
  server_options.partition_map = *map;
  auto server = CollectionServer::Start(collector.oracle(), server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return endpoint;
  endpoint.server = std::move(*server);
  auto routing = PartitionRoutingClient::Connect(
      collector.oracle(), *map, {{host, endpoint.server->port()}});
  EXPECT_TRUE(routing.ok()) << routing.status().ToString();
  if (!routing.ok()) return endpoint;
  endpoint.routing = std::move(*routing);
  endpoint.coordinator = std::make_unique<MergeCoordinator>(
      collector.oracle(), endpoint.routing.get());
  return endpoint;
}

TEST(EndpointE2e, BitwiseIdenticalToInProcessAtScale) {
  const uint64_t n = 120000;  // >= 10^5 per the acceptance bar
  const uint64_t d = 512;

  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 8192;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();

  std::vector<uint64_t> values(n);
  Rng data_rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = data_rng.Bernoulli(0.10) ? 0 : 1 + data_rng.UniformU64(d - 1);
  }

  SingleEndpoint endpoint = StartSingleEndpoint(**collector, options.streaming);
  ASSERT_NE(endpoint.coordinator, nullptr);

  Rng remote_rng(1234);
  auto remote = (*collector)->CollectDistributed(
      values, &remote_rng, endpoint.routing.get(), endpoint.coordinator.get(),
      endpoint.server->round_id());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  Rng local_rng(1234);
  auto local = (*collector)->CollectStreaming(values, &local_rng);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  EXPECT_EQ(remote->supports, local->supports);
  EXPECT_EQ(remote->estimates, local->estimates);  // bitwise (exact ==)
  EXPECT_EQ(remote->reports_decoded, local->reports_decoded);
  EXPECT_EQ(remote->reports_invalid, local->reports_invalid);
  EXPECT_GT(remote->reports_decoded, n);  // users + non-padding fakes
}

TEST(EndpointE2e, SecondRoundOnTheSameEndpointAlsoMatches) {
  const uint64_t n = 20000;
  const uint64_t d = 128;
  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 2048;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok());

  std::vector<uint64_t> values(n);
  Rng data_rng(8);
  for (uint64_t i = 0; i < n; ++i) values[i] = data_rng.UniformU64(d);

  SingleEndpoint endpoint =
      StartSingleEndpoint(**collector, options.streaming, "localhost");
  ASSERT_NE(endpoint.coordinator, nullptr);

  for (uint64_t seed : {11u, 22u}) {
    Rng remote_rng(seed);
    auto remote = (*collector)->CollectDistributed(
        values, &remote_rng, endpoint.routing.get(),
        endpoint.coordinator.get(), endpoint.server->round_id());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    Rng local_rng(seed);
    auto local = (*collector)->CollectStreaming(values, &local_rng);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(remote->supports, local->supports);
    EXPECT_EQ(remote->estimates, local->estimates);
  }
}

// Deterministic synthetic batch for the restart test (self-seeded like
// the protocol encode phases, so the client can replay any suffix).
std::vector<uint64_t> BatchOrdinals(const ldp::ScalarFrequencyOracle& oracle,
                                    uint64_t b, size_t batch_size) {
  Rng rng(0xFEED + b);
  std::vector<uint64_t> ordinals;
  ordinals.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    ordinals.push_back(oracle.PackOrdinal(
        oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
  }
  return ordinals;
}

TEST(EndpointE2e, ServerRestartMidRoundConvergesToUninterruptedResult) {
  ldp::Grr grr(2.0, 64);
  const uint64_t kBatches = 60;
  const size_t kBatchSize = 256;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = ::testing::TempDir() + "shuffledp_endpoint_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions options;
  options.streaming.batch_size = kBatchSize;
  options.streaming.round_store.dir = dir;

  // Ground truth: one uninterrupted server round.
  RemoteRoundResult expected;
  {
    CollectionServerOptions plain = options;
    plain.streaming.round_store.dir = dir + "_plain";
    auto server = CollectionServer::Start(grr, plain);
    ASSERT_TRUE(server.ok());
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    const uint64_t round = (*server)->round_id();
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto result =
        (*client)->FinishRound(round, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected = std::move(*result);
    ASSERT_EQ(std::system(("rm -rf '" + dir + "_plain'").c_str()), 0);
  }

  // Interrupted run: send 35 batches, wait until some are durable, then
  // kill the server.
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok());
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    const uint64_t round = (*server)->round_id();
    EXPECT_EQ(round, 0u);
    for (uint64_t b = 0; b < 35; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    // TCP delivery is asynchronous: wait until the store holds a
    // durable watermark so the "crash" below reliably has something to
    // recover from. The shutdown drain then consumes whatever else the
    // kernel delivered.
    uint64_t durable = 0;
    for (int spin = 0; spin < 2000 && durable == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      durable = (*server)->store()->Query(round)->watermark;
    }
    ASSERT_GT(durable, 0u);
    (*server)->Shutdown();
  }

  // Recovered server: the client asks where to resume and replays the
  // suffix (batch self-seeding makes the replay bit-identical).
  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());

    uint64_t round = 99;
    auto watermark = (*client)->QueryWatermark(&round);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_EQ(round, 0u);
    auto stored = (*server)->store()->Query(round);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(stored->status, RoundStatus::kActive);
    EXPECT_EQ(*watermark, stored->watermark);
    ASSERT_GT(*watermark, 0u);
    ASSERT_LE(*watermark, 35u);

    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto result =
        (*client)->FinishRound(round, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->supports, expected.supports);
    EXPECT_EQ(result->estimates, expected.estimates);
    EXPECT_EQ(result->reports_decoded, expected.reports_decoded);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// The post-close crash window: the server finalized the round (journal
// durable in the store) and died before the client read the result. The restarted server must serve the journaled result for that
// round — bitwise — and still run new rounds afterwards.
TEST(EndpointE2e, RestartAfterRoundCloseServesJournaledResult) {
  ldp::Grr grr(2.0, 32);
  const std::string dir = ::testing::TempDir() + "shuffledp_journal_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions options;
  options.streaming.batch_size = 128;
  options.streaming.round_store.dir = dir;

  RemoteRoundResult original;
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t b = 0; b < 10; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(0, grr, BatchOrdinals(grr, b, 128))
                      .ok());
    }
    auto result = (*client)->FinishRound(0, 1280, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    original = std::move(*result);
    auto stored = (*server)->store()->Query(0);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(stored->status, RoundStatus::kFinalized);
    (*server)->Shutdown();  // "crash" after close; client got the result,
                            // but a real crash may race the read
  }

  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    // The worker resumed *after* the journaled round.
    EXPECT_EQ((*server)->round_id(), 1u);

    // Re-asking with *different* close parameters must be refused — a
    // journaled result is only valid for the parameters it closed with.
    {
      auto probe = CollectorClient::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(probe.ok());
      auto wrong = (*probe)->FinishRound(0, 9999, 0, Calibration::kStandard);
      ASSERT_FALSE(wrong.ok());
      EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
    }

    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    // Re-asking for round 0 replays the journal bitwise.
    auto replay = (*client)->FinishRound(0, 1280, 0, Calibration::kStandard);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->supports, original.supports);
    EXPECT_EQ(replay->estimates, original.estimates);
    EXPECT_EQ(replay->reports_decoded, original.reports_decoded);

    // And the endpoint is not stuck in the past: round 1 works.
    ASSERT_TRUE((*client)->SendOrdinals(1, grr, {1, 2, 3}).ok());
    auto next = (*client)->FinishRound(1, 3, 0, Calibration::kStandard);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next->reports_decoded, 3u);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Segmented-store e2e: two rounds over one endpoint, the server killed
// while round 1 is mid-flight. kQuery must serve round 0's finalized
// result bitwise before AND after the restart, report round 1 as active
// with its durable watermark, and the replayed round 1 must match an
// uninterrupted run bitwise.
TEST(EndpointE2e, DurableStoreServesQueryAcrossRestartMultiRound) {
  ldp::Grr grr(2.0, 32);
  const uint64_t kBatches = 10;
  const size_t kBatchSize = 128;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = ::testing::TempDir() + "shuffledp_e2e_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions options;
  options.streaming.batch_size = kBatchSize;
  options.streaming.round_store.dir = dir;
  options.streaming.round_store.compact_every_records = 4;

  // Ground truth: both rounds on a store-less endpoint. Round r's batch
  // b self-seeds as BatchOrdinals(100 * r + b), so any suffix replays
  // bit-identically.
  RemoteRoundResult expected[2];
  {
    CollectionServerOptions plain;
    plain.streaming.batch_size = kBatchSize;
    auto server = CollectionServer::Start(grr, plain);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t r = 0; r < 2; ++r) {
      for (uint64_t b = 0; b < kBatches; ++b) {
        ASSERT_TRUE(
            (*client)
                ->SendOrdinals(r, grr,
                               BatchOrdinals(grr, 100 * r + b, kBatchSize))
                .ok());
      }
      auto result = (*client)->FinishRound(r, n, 0, Calibration::kStandard);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      expected[r] = std::move(*result);
    }
  }

  // Durable run: finish round 0, kill the server mid-round-1.
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(0, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto r0 = (*client)->FinishRound(0, n, 0, Calibration::kStandard);
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    ASSERT_EQ(r0->supports, expected[0].supports);

    for (uint64_t b = 0; b < 6; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(1, grr,
                                     BatchOrdinals(grr, 100 + b, kBatchSize))
                      .ok());
    }

    // Live queries: TCP delivery is asynchronous, so spin until the
    // consumer accepted all six batches before pinning the watermark.
    RoundQuery live;
    for (int spin = 0; spin < 2000; ++spin) {
      auto q = (*client)->QueryRound(1);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      live = *q;
      if (live.watermark >= 6) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(live.status, RoundStatus::kActive);
    EXPECT_EQ(live.watermark, 6u);
    EXPECT_FALSE(live.durability_degraded);

    auto finalized = (*client)->QueryRound(0);
    ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
    EXPECT_EQ(finalized->status, RoundStatus::kFinalized);
    EXPECT_EQ(finalized->n, n);
    EXPECT_EQ(finalized->result.supports, expected[0].supports);
    EXPECT_EQ(finalized->result.estimates, expected[0].estimates);

    auto unknown = (*client)->QueryRound(99);
    ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
    EXPECT_EQ(unknown->status, RoundStatus::kUnknown);

    (*server)->Shutdown();  // crash with round 1 in flight
  }

  // Recovered endpoint: round 0 still served bitwise from the store,
  // round 1 resumed from its durable watermark and finished bitwise.
  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());

    auto finalized = (*client)->QueryRound(0);
    ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
    EXPECT_EQ(finalized->status, RoundStatus::kFinalized);
    EXPECT_FALSE(finalized->durability_degraded);
    EXPECT_EQ(finalized->result.supports, expected[0].supports);
    EXPECT_EQ(finalized->result.estimates, expected[0].estimates);
    EXPECT_EQ(finalized->result.reports_decoded, expected[0].reports_decoded);

    uint64_t round = 0;
    auto watermark = (*client)->QueryWatermark(&round);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_EQ(round, 1u);
    // The consumer never idles with an unsynced group, so all six
    // accepted batches were durable before the crash.
    EXPECT_EQ(*watermark, 6u);

    auto live = (*client)->QueryRound(1);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(live->status, RoundStatus::kActive);
    EXPECT_EQ(live->watermark, *watermark);

    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(1, grr,
                                     BatchOrdinals(grr, 100 + b, kBatchSize))
                      .ok());
    }
    auto r1 = (*client)->FinishRound(1, n, 0, Calibration::kStandard);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(r1->supports, expected[1].supports);
    EXPECT_EQ(r1->estimates, expected[1].estimates);
    EXPECT_EQ(r1->reports_decoded, expected[1].reports_decoded);

    auto closed = (*client)->QueryRound(1);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_EQ(closed->status, RoundStatus::kFinalized);
    EXPECT_EQ(closed->result.supports, expected[1].supports);
    EXPECT_EQ(closed->result.estimates, expected[1].estimates);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(EndpointE2e, WatermarkIsZeroOutsideTheRecoveredRound) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok());
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // Fresh start: nothing to resume.
  uint64_t round = 99;
  auto watermark = (*client)->QueryWatermark(&round);
  ASSERT_TRUE(watermark.ok());
  EXPECT_EQ(*watermark, 0u);
  EXPECT_EQ(round, 0u);

  // After a round closes the answer must stay 0 (a stale watermark
  // paired with a later round would make a resuming client skip that
  // round's first batches).
  ASSERT_TRUE((*client)->SendOrdinals(0, grr, {1, 2, 3}).ok());
  ASSERT_TRUE(
      (*client)->FinishRound(0, 3, 0, Calibration::kStandard).ok());
  watermark = (*client)->QueryWatermark(&round);
  ASSERT_TRUE(watermark.ok());
  EXPECT_EQ(*watermark, 0u);
  EXPECT_EQ(round, 1u);
}

// A round store that cannot open (its directory would sit under a
// regular file: ENOTDIR) refuses the endpoint instead of serving traffic
// without the durability it was configured for.
TEST(EndpointE2e, UnopenableStoreRefusesToStart) {
  ldp::Grr grr(2.0, 16);
  const std::string root = ::testing::TempDir() + "shuffledp_e2e_unopenable";
  ASSERT_EQ(std::system(("rm -rf '" + root + "' && mkdir -p '" + root +
                         "' && touch '" + root + "/file'")
                            .c_str()),
            0);
  CollectionServerOptions options;
  options.streaming.round_store.dir = root + "/file/store";
  auto server = CollectionServer::Start(grr, options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInternal);
  ASSERT_EQ(std::system(("rm -rf '" + root + "'").c_str()), 0);
}

TEST(EndpointE2e, WrongRoundIdIsRejected) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok());
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      (*client)->SendOrdinals((*server)->round_id() + 5, grr, {1, 2}).ok());
  // The server answers with a kError frame and drops the connection; the
  // next read surfaces it.
  auto result = (*client)->ReadRoundResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolViolation);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
