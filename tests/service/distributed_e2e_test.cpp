// Multi-endpoint loopback end-to-end: a partitioned fleet behind the
// merge-of-supports coordinator must be indistinguishable — bitwise —
// from the single-node streaming path, for both partition modes and both
// oracles, at n >= 10^5; a single endpoint killed mid-round must recover
// from its round store without disturbing the others; and misrouted
// traffic (wrong partition header, wrong value slice) must be rejected,
// never miscounted.

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
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {
namespace {

struct Fleet {
  std::vector<std::unique_ptr<CollectionServer>> servers;
  std::vector<EndpointAddress> endpoints;
};

Fleet StartFleet(const ldp::ScalarFrequencyOracle& oracle,
                 const PartitionMap& map,
                 const CollectionServerOptions& base) {
  Fleet fleet;
  for (uint32_t p = 0; p < map.partitions(); ++p) {
    CollectionServerOptions options = base;
    options.partition_map = map;
    options.partition_id = p;
    auto server = CollectionServer::Start(oracle, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    fleet.endpoints.push_back({"127.0.0.1", (*server)->port()});
    fleet.servers.push_back(std::move(*server));
  }
  return fleet;
}

void ExpectBitwiseEqualRounds(const RoundResult& distributed,
                              const RoundResult& local) {
  EXPECT_EQ(distributed.supports, local.supports);
  EXPECT_EQ(distributed.estimates, local.estimates);  // exact ==, bitwise
  EXPECT_EQ(distributed.reports_decoded, local.reports_decoded);
  EXPECT_EQ(distributed.reports_invalid, local.reports_invalid);
  EXPECT_TRUE(distributed.spot_check_passed);
}

// GRR picks the kByValue layout: each endpoint owns a contiguous value
// range and sees only the reports (and blanket fakes) it owns.
TEST(DistributedE2e, GrrByValueThreePartitionsBitwiseEqualsSingleNode) {
  const uint64_t n = 120000;  // >= 10^5 per the acceptance bar
  const uint64_t d = 64;      // planner chooses GRR here

  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 4096;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();
  ASSERT_TRUE((*collector)->plan().use_grr) << "config must select GRR";

  auto map = PartitionMap::Create((*collector)->oracle(),
                                  PartitionMode::kByValue, 3);
  ASSERT_TRUE(map.ok()) << map.status().ToString();

  std::vector<uint64_t> values(n);
  Rng data_rng(17);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = data_rng.Bernoulli(0.10) ? 0 : 1 + data_rng.UniformU64(d - 1);
  }

  CollectionServerOptions base;
  base.streaming = options.streaming;
  Fleet fleet = StartFleet((*collector)->oracle(), *map, base);
  ASSERT_EQ(fleet.servers.size(), 3u);

  auto routing = PartitionRoutingClient::Connect((*collector)->oracle(),
                                                 *map, fleet.endpoints);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  for (uint32_t p = 0; p < 3; ++p) EXPECT_EQ((*routing)->round_id(p), 0u);
  MergeCoordinator coordinator((*collector)->oracle(), routing->get());

  Rng distributed_rng(1234);
  auto distributed = (*collector)->CollectDistributed(
      values, &distributed_rng, routing->get(), &coordinator, 0);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  Rng local_rng(1234);
  auto local = (*collector)->CollectStreaming(values, &local_rng);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  ExpectBitwiseEqualRounds(*distributed, *local);
  EXPECT_GT(distributed->reports_decoded, n);  // users + non-padding fakes
}

// SOLH reports support values across the whole domain, so the fleet
// partitions by client (round-robin batches) and the coordinator sums
// full-domain supports.
TEST(DistributedE2e, SolhByClientThreePartitionsBitwiseEqualsSingleNode) {
  const uint64_t n = 120000;
  const uint64_t d = 512;  // planner chooses SOLH here

  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 8192;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();
  ASSERT_FALSE((*collector)->plan().use_grr) << "config must select SOLH";

  auto map = PartitionMap::Create((*collector)->oracle(),
                                  PartitionMode::kByClient, 3);
  ASSERT_TRUE(map.ok()) << map.status().ToString();

  std::vector<uint64_t> values(n);
  Rng data_rng(18);
  for (uint64_t i = 0; i < n; ++i) values[i] = data_rng.UniformU64(d);

  CollectionServerOptions base;
  base.streaming = options.streaming;
  // SOLH support counting scans the domain per report; give the endpoint
  // consumers the shared pool so the heavyweight e2e stays fast. The
  // result is pool-size independent (pinned by streaming_determinism).
  base.streaming.pool = &GlobalThreadPool();
  Fleet fleet = StartFleet((*collector)->oracle(), *map, base);

  auto routing = PartitionRoutingClient::Connect((*collector)->oracle(),
                                                 *map, fleet.endpoints);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  MergeCoordinator coordinator((*collector)->oracle(), routing->get());

  Rng distributed_rng(99);
  auto distributed = (*collector)->CollectDistributed(
      values, &distributed_rng, routing->get(), &coordinator, 0);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  Rng local_rng(99);
  auto local = (*collector)->CollectStreaming(values, &local_rng);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  ExpectBitwiseEqualRounds(*distributed, *local);
}

// Deterministic synthetic batch stream for the recovery test (self-seeded
// per batch, so any suffix replays bit-identically).
std::vector<uint64_t> BatchOrdinals(const ldp::ScalarFrequencyOracle& oracle,
                                    uint64_t b, size_t batch_size) {
  Rng rng(0xD157 + b);
  std::vector<uint64_t> ordinals;
  ordinals.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    ordinals.push_back(oracle.PackOrdinal(
        oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
  }
  return ordinals;
}

// Kills one endpoint of a `partitions`-endpoint fleet mid-round and
// restarts it from its round store. The producer then re-sends the whole
// round from batch 0 through a fresh routing client: each endpoint's
// batch-index gate drops what it already consumed, so the merged result
// is bitwise the uninterrupted one. At P = 1 this is the single-endpoint
// remote round.
void KillOneEndpointAndReplayFromZero(uint32_t partitions) {
  ldp::Grr grr(2.0, 48);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, partitions);
  ASSERT_TRUE(map.ok());
  const uint32_t victim = partitions / 2;
  const uint64_t kBatches = 60;
  const size_t kBatchSize = 512;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir =
      ::testing::TempDir() + "shuffledp_distributed_kill_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions base;
  base.streaming.batch_size = kBatchSize;

  // Ground truth: one uninterrupted distributed round over a fresh fleet.
  RoundResult expected;
  {
    Fleet fleet = StartFleet(grr, *map, base);
    auto routing = PartitionRoutingClient::Connect(grr, *map,
                                                   fleet.endpoints);
    ASSERT_TRUE(routing.ok()) << routing.status().ToString();
    MergeCoordinator coordinator(grr, routing->get());
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(
          (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, kBatchSize)).ok());
    }
    auto result = coordinator.FinishRound(0, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected = std::move(*result);
  }

  // Interrupted run: the victim persists, every endpoint gets 35
  // batches, the victim dies.
  CollectionServerOptions victim_options = base;
  victim_options.streaming.round_store.dir = dir;
  Fleet fleet;
  for (uint32_t p = 0; p < partitions; ++p) {
    CollectionServerOptions options = p == victim ? victim_options : base;
    options.partition_map = *map;
    options.partition_id = p;
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    fleet.endpoints.push_back({"127.0.0.1", (*server)->port()});
    fleet.servers.push_back(std::move(*server));
  }
  auto routing = PartitionRoutingClient::Connect(grr, *map, fleet.endpoints);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();

  const uint64_t kSent = 35;
  for (uint64_t b = 0; b < kSent; ++b) {
    ASSERT_TRUE(
        (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, kBatchSize)).ok());
  }
  // The watermark query is a flush barrier: each survivor has consumed
  // all kSent batches, so the replay below duplicates every one of them.
  for (uint32_t p = 0; p < partitions; ++p) {
    if (p == victim) continue;
    auto consumed = (*routing)->QueryWatermark(p);
    ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
    ASSERT_EQ(*consumed, kSent);
  }
  // TCP delivery is asynchronous: wait until the victim made some
  // batches durable so the "crash" reliably has something to recover
  // from.
  uint64_t durable = 0;
  for (int spin = 0; spin < 2000 && durable == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    durable = fleet.servers[victim]->store()->Query(0)->watermark;
  }
  ASSERT_GT(durable, 0u);
  // Kill exactly one endpoint mid-round. Destroy the object, not just
  // Shutdown(), so nothing keeps draining.
  fleet.servers[victim].reset();

  // Restart the victim with recovery.
  {
    CollectionServerOptions options = victim_options;
    options.partition_map = *map;
    options.partition_id = victim;
    options.recover = true;
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    fleet.endpoints[victim] = {"127.0.0.1", (*server)->port()};
    fleet.servers[victim] = std::move(*server);
  }
  auto stored = fleet.servers[victim]->store()->LoadAll();
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_EQ(stored->size(), 1u);
  const CheckpointState& live = (*stored)[0].state;
  ASSERT_FALSE((*stored)[0].finalized);
  ASSERT_GT(live.batches_consumed, 0u);
  ASSERT_LE(live.batches_consumed, kSent);
  EXPECT_EQ(live.partition_index, victim);
  EXPECT_EQ(live.partition_count, partitions);
  // A restarted producer: a fresh routing client against the updated
  // address, re-sending the round from batch 0.
  routing = PartitionRoutingClient::Connect(grr, *map, fleet.endpoints);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();

  uint64_t recovered_round = 99;
  auto watermark = (*routing)->QueryWatermark(victim, &recovered_round);
  ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
  EXPECT_EQ(*watermark, live.batches_consumed);
  EXPECT_EQ(recovered_round, 0u);

  for (uint64_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(
        (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, kBatchSize)).ok());
  }
  MergeCoordinator coordinator(grr, routing->get());
  auto result = coordinator.FinishRound(0, n, 0, Calibration::kStandard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->supports, expected.supports);
  EXPECT_EQ(result->estimates, expected.estimates);
  EXPECT_EQ(result->reports_decoded, expected.reports_decoded);
  // Each stale index reached its endpoint twice and was dropped once:
  // the survivors dropped the kSent batches they had consumed, the
  // victim the ones its store recovered.
  for (uint32_t p = 0; p < partitions; ++p) {
    EXPECT_EQ(fleet.servers[p]->stats().batches_deduped,
              p == victim ? *watermark : kSent)
        << "partition " << p;
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DistributedE2e, KillOneEndpointMidRoundRecoversBitwise) {
  KillOneEndpointAndReplayFromZero(3);
}

TEST(DistributedE2e, KillTheOnlyEndpointMidRoundRecoversBitwise) {
  KillOneEndpointAndReplayFromZero(1);
}

TEST(DistributedE2e, WrongPartitionTrafficIsRejected) {
  ldp::Grr grr(2.0, 30);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 3);
  ASSERT_TRUE(map.ok());
  CollectionServerOptions base;
  Fleet fleet = StartFleet(grr, *map, base);

  {
    // Wrong partition header: endpoint 0 owns partition 0, frame says 2.
    auto client = CollectorClient::Connect("127.0.0.1",
                                           fleet.endpoints[0].port);
    ASSERT_TRUE(client.ok());
    (*client)->set_partition(2);
    ASSERT_TRUE((*client)->SendOrdinals(0, grr, {1}).ok());
    auto result = (*client)->ReadRoundResult();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kProtocolViolation);
  }
  {
    // Right header, wrong contents: value 29 lives in partition 2's
    // slice, not partition 0's.
    auto client = CollectorClient::Connect("127.0.0.1",
                                           fleet.endpoints[0].port);
    ASSERT_TRUE(client.ok());
    auto hello = (*client)->Hello(*map, 0);
    ASSERT_TRUE(hello.ok()) << hello.status().ToString();
    ASSERT_TRUE((*client)->SendOrdinals(0, grr, {29}).ok());
    auto result = (*client)->ReadRoundResult();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kProtocolViolation);
  }
  {
    // The endpoint survives misrouted peers: a well-behaved round on
    // partition 0 still completes.
    auto client = CollectorClient::Connect("127.0.0.1",
                                           fleet.endpoints[0].port);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Hello(*map, 0).ok());
    ASSERT_TRUE((*client)->SendOrdinals(0, grr, {1, 2, 3}).ok());
    auto result = (*client)->FinishRound(0, 3, 0, Calibration::kNone);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->reports_decoded, 3u);
    EXPECT_TRUE(result->estimates.empty());  // raw supports under kNone
    PartitionSlice slice = map->SliceOf(0);
    EXPECT_EQ(result->supports.size(), slice.hi - slice.lo);
  }
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
