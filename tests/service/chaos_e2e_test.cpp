// Chaos end-to-end: a fleet round under a scripted, seeded fault
// schedule — an endpoint killed and restarted mid-round, torn writes on
// another, jittered delays on a third, a refused reconnect — must
// produce estimates bitwise equal to a fault-free run with NO manual
// recovery calls: the routing client and coordinator run the
// reconnect → handshake → watermark → replay dance themselves. And an endpoint that never comes
// back must fail the round inside its configured budget with a
// RoundHealth report naming the dead partition.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ldp/grr.h"
#include "service/coordinator.h"
#include "service/fault_injection.h"
#include "service/transport.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

struct Fleet {
  std::vector<std::unique_ptr<CollectionServer>> servers;
  std::vector<EndpointAddress> endpoints;
};

Fleet StartFleet(const ldp::ScalarFrequencyOracle& oracle,
                 const PartitionMap& map,
                 const CollectionServerOptions& base,
                 const CollectionServerOptions* special = nullptr,
                 uint32_t special_partition = 0) {
  Fleet fleet;
  for (uint32_t p = 0; p < map.partitions(); ++p) {
    CollectionServerOptions options =
        (special != nullptr && p == special_partition) ? *special : base;
    options.partition_map = map;
    options.partition_id = p;
    auto server = CollectionServer::Start(oracle, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    fleet.endpoints.push_back({"127.0.0.1", (*server)->port()});
    fleet.servers.push_back(std::move(*server));
  }
  return fleet;
}

// Deterministic synthetic batch stream: self-seeded per batch, so any
// replayed suffix is bit-identical to the original send.
std::vector<uint64_t> BatchOrdinals(const ldp::ScalarFrequencyOracle& oracle,
                                    uint64_t b, size_t batch_size) {
  Rng rng(0xC4A05 + b);
  std::vector<uint64_t> ordinals;
  ordinals.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    ordinals.push_back(oracle.PackOrdinal(
        oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
  }
  return ordinals;
}

// Fast-failing recovery budget so chaos rounds settle in test time.
RoutingOptions FastRetry() {
  RoutingOptions options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_ms = 5;
  options.retry.max_backoff_ms = 50;
  options.client.connect_timeout_ms = 2000;
  return options;
}

TEST(ChaosE2e, KillRestartTornWritesAndDelaysRecoverBitwise) {
  ldp::Grr grr(2.0, 48);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 3);
  ASSERT_TRUE(map.ok());
  const uint64_t kBatches = 60;
  const size_t kBatchSize = 512;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = ::testing::TempDir() + "shuffledp_chaos_p1_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions base;
  base.streaming.batch_size = kBatchSize;

  // Ground truth: one fault-free distributed round over a fresh fleet.
  RoundResult expected;
  {
    Fleet fleet = StartFleet(grr, *map, base);
    auto routing =
        PartitionRoutingClient::Connect(grr, *map, fleet.endpoints);
    ASSERT_TRUE(routing.ok()) << routing.status().ToString();
    MergeCoordinator coordinator(grr, routing->get());
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(
          (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, kBatchSize)).ok());
    }
    auto result = coordinator.FinishRound(0, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(coordinator.last_round_health().all_healthy());
    expected = std::move(*result);
  }

  // Chaos run: partition 1 persists (so its restart can recover).
  CollectionServerOptions p1_options = base;
  p1_options.streaming.round_store.dir = dir;
  Fleet fleet = StartFleet(grr, *map, base, &p1_options, 1);
  auto routing = PartitionRoutingClient::Connect(grr, *map, fleet.endpoints,
                                                 FastRetry());
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  MergeCoordinator coordinator(grr, routing->get());

  // The scripted schedule (installed after the handshakes so it only
  // bites mid-round):
  //   - endpoint 0's 6th..8th send calls are torn at 7 bytes — the frame
  //     crosses the wire in slivers and must reassemble;
  //   - endpoint 2's recvs get seeded 1 ms stalls 25% of the time;
  //   - the first reconnect to the restarted endpoint 1 is refused, so
  //     recovery has to back off and try again.
  FaultInjector fi(0x5EED);
  FaultRule torn;
  torn.op = FaultOp::kSend;
  torn.port = fleet.endpoints[0].port;
  torn.skip = 5;
  torn.count = 3;
  torn.action = FaultAction::TruncateSend(7);
  fi.AddRule(torn);
  FaultRule slow;
  slow.op = FaultOp::kRecv;
  slow.port = fleet.endpoints[2].port;
  slow.probability = 0.25;
  slow.action = FaultAction::DelayMs(1);
  fi.AddRule(slow);
  FaultRule refuse;
  refuse.op = FaultOp::kConnect;
  refuse.port = fleet.endpoints[1].port;
  refuse.count = 1;
  refuse.action = FaultAction::FailErrno(ECONNREFUSED);
  fi.AddRule(refuse);
  ScopedFaultInjector scope(&fi);

  const uint64_t kKillAfter = 35;
  for (uint64_t b = 0; b < kBatches; ++b) {
    if (b == kKillAfter) {
      // Let the doomed endpoint make some batches durable, then kill it —
      // destroy the object, not just Shutdown(), so nothing keeps
      // draining — and restart it on the same port with recovery. No
      // routing-client surgery: the next failed send triggers the
      // automatic reconnect → handshake → watermark → replay dance.
      uint64_t durable = 0;
      for (int spin = 0; spin < 2000 && durable == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        durable = fleet.servers[1]->store()->Query(0)->watermark;
      }
      ASSERT_GT(durable, 0u);
      const uint16_t port = fleet.endpoints[1].port;
      fleet.servers[1].reset();
      CollectionServerOptions restart = p1_options;
      restart.port = port;
      restart.partition_map = *map;
      restart.partition_id = 1;
      restart.recover = true;
      auto server = CollectionServer::Start(grr, restart);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      EXPECT_GT((*server)->recovered_watermark(), 0u);
      fleet.servers[1] = std::move(*server);
    }
    ASSERT_TRUE(
        (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, kBatchSize)).ok())
        << "batch " << b;
  }

  auto result = coordinator.FinishRound(0, n, 0, Calibration::kStandard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Bitwise: the chaos schedule may shift timing, never the estimate.
  EXPECT_EQ(result->supports, expected.supports);
  EXPECT_EQ(result->estimates, expected.estimates);
  EXPECT_EQ(result->reports_decoded, expected.reports_decoded);
  EXPECT_EQ(result->reports_invalid, expected.reports_invalid);
  EXPECT_TRUE(result->spot_check_passed);

  // The faults actually fired and the recovery actually ran.
  EXPECT_GT(fi.injected(FaultOp::kSend), 0u);
  EXPECT_GT(fi.injected(FaultOp::kConnect), 0u);
  EXPECT_GE((*routing)->health(1).recoveries, 1u);
  EXPECT_GE((*routing)->health(1).attempts, 2u);  // one refused + one good
  RoundHealth health = coordinator.last_round_health();
  EXPECT_EQ(health.round_id, 0u);
  EXPECT_TRUE(health.all_healthy()) << health.ToString();

  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(ChaosE2e, DeadEndpointFailsSendWithinBudgetNamingPartition) {
  ldp::Grr grr(2.0, 32);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 2);
  ASSERT_TRUE(map.ok());
  CollectionServerOptions base;
  base.streaming.batch_size = 64;
  Fleet fleet = StartFleet(grr, *map, base);

  RoutingOptions fast = FastRetry();
  fast.retry.max_attempts = 3;
  fast.retry.initial_backoff_ms = 2;
  fast.retry.max_backoff_ms = 10;
  auto routing =
      PartitionRoutingClient::Connect(grr, *map, fleet.endpoints, fast);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();

  for (uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE((*routing)->SendBatch(0, b, BatchOrdinals(grr, b, 64)).ok());
  }
  // Partition 1 dies and never comes back.
  fleet.servers[1].reset();

  const auto t0 = Clock::now();
  Status failed = Status::OK();
  for (uint64_t b = 4; b < 64 && failed.ok(); ++b) {
    failed = (*routing)->SendBatch(0, b, BatchOrdinals(grr, b, 64));
  }
  ASSERT_FALSE(failed.ok()) << "sends into a dead endpoint never failed";
  // Budget-bounded: 3 attempts at <= 10 ms backoff plus fast refused
  // connects — nowhere near a hang.
  EXPECT_LT(ElapsedMs(t0), 30000);
  EXPECT_TRUE(IsRetryableTransportError(failed));
  EXPECT_NE(failed.message().find("partition 1"), std::string::npos)
      << failed.ToString();
  EXPECT_NE(failed.message().find("recovery exhausted"), std::string::npos)
      << failed.ToString();
  const PartitionHealth& health = (*routing)->health(1);
  EXPECT_FALSE(health.healthy);
  EXPECT_EQ(health.attempts, 3u);
  EXPECT_EQ(health.recoveries, 0u);
}

TEST(ChaosE2e, DeadEndpointFailsRoundCloseWithRoundHealth) {
  ldp::Grr grr(2.0, 32);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 2);
  ASSERT_TRUE(map.ok());
  CollectionServerOptions base;
  base.streaming.batch_size = 64;
  Fleet fleet = StartFleet(grr, *map, base);

  RoutingOptions fast = FastRetry();
  fast.retry.max_attempts = 3;
  fast.retry.initial_backoff_ms = 2;
  fast.retry.max_backoff_ms = 10;
  auto routing =
      PartitionRoutingClient::Connect(grr, *map, fleet.endpoints, fast);
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();
  MergeCoordinator coordinator(grr, routing->get());

  const uint64_t kBatches = 8;
  for (uint64_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*routing)->SendBatch(0, b, BatchOrdinals(grr, b, 64)).ok());
  }
  // The endpoint dies between the last batch and the round close; the
  // failure must surface at FinishRound, inside the budget, with the
  // health report naming the dead partition and its watermark.
  fleet.servers[1].reset();

  const auto t0 = Clock::now();
  auto result =
      coordinator.FinishRound(0, kBatches * 64, 0, Calibration::kStandard);
  ASSERT_FALSE(result.ok());
  EXPECT_LT(ElapsedMs(t0), 30000);
  EXPECT_TRUE(IsRetryableTransportError(result.status()))
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("p1 DEAD"), std::string::npos)
      << result.status().ToString();

  RoundHealth health = coordinator.last_round_health();
  ASSERT_EQ(health.partitions.size(), 2u);
  EXPECT_TRUE(health.partitions[0].healthy);
  EXPECT_FALSE(health.partitions[1].healthy);
  EXPECT_GE(health.partitions[1].attempts, 3u);
  EXPECT_FALSE(health.all_healthy());
  EXPECT_NE(health.ToString().find("p1 DEAD"), std::string::npos)
      << health.ToString();
}

TEST(ChaosE2e, ReFinishForClosedRoundIsServedFromResultStash) {
  // The close-to-read window, live-server edition: a coordinator whose
  // connection dies after the endpoint finalized the round re-sends the
  // finish on a fresh connection and must receive the *same* result —
  // and a re-finish restating different parameters must be refused.
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  options.streaming.batch_size = 4;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto first = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->SendOrdinals(0, grr, {1, 2, 3, 4}).ok());
  auto original = (*first)->FinishRound(0, 4, 0, Calibration::kStandard);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  auto second = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(second.ok());
  auto replayed = (*second)->FinishRound(0, 4, 0, Calibration::kStandard);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->supports, original->supports);
  EXPECT_EQ(replayed->estimates, original->estimates);
  EXPECT_EQ(replayed->reports_decoded, original->reports_decoded);

  auto third = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(third.ok());
  auto mismatched = (*third)->FinishRound(0, 5, 0, Calibration::kStandard);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kProtocolViolation);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
