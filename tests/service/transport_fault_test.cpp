// Deadline and eviction behavior of the fault-tolerant transport: a
// silent peer surfaces as kDeadlineExceeded (never a hang), refused and
// injected-refused connects as kUnavailable, idle connections are
// evicted and counted, and the kWatermark flush barrier stays exact with
// concurrent producers under injected recv delays.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "ldp/grr.h"
#include "service/fault_injection.h"
#include "service/retry.h"
#include "service/transport.h"

namespace shuffledp {
namespace service {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

// A listening socket that accepts into the kernel backlog but never
// reads or replies — the "silent peer" every deadline must beat.
struct SilentListener {
  int fd = -1;
  uint16_t port = 0;

  SilentListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd, 8);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  ~SilentListener() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(TransportDeadlines, SilentPeerReadFailsWithinDeadline) {
  SilentListener silent;
  CollectorClientOptions options;
  options.read_timeout_ms = 80;
  auto client = CollectorClient::Connect("127.0.0.1", silent.port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto t0 = Clock::now();
  auto watermark = (*client)->QueryWatermark();
  ASSERT_FALSE(watermark.ok());
  EXPECT_EQ(watermark.status().code(), StatusCode::kDeadlineExceeded);
  // The error names the endpoint so a fleet operator knows *which* peer
  // went silent.
  EXPECT_NE(watermark.status().message().find(
                "127.0.0.1:" + std::to_string(silent.port)),
            std::string::npos)
      << watermark.status().ToString();
  EXPECT_TRUE(IsRetryableTransportError(watermark.status()));
  EXPECT_LT(ElapsedMs(t0), 5000);  // bounded, not a hang
}

TEST(TransportDeadlines, RefusedConnectIsUnavailableAndNamesEndpoint) {
  // Grab a port, then close it: nothing listens there.
  uint16_t dead_port;
  {
    SilentListener probe;
    dead_port = probe.port;
  }
  const auto t0 = Clock::now();
  auto client = CollectorClient::Connect("127.0.0.1", dead_port);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(client.status().message().find(std::to_string(dead_port)),
            std::string::npos);
  EXPECT_TRUE(IsRetryableTransportError(client.status()));
  EXPECT_LT(ElapsedMs(t0), 5000);
}

TEST(TransportDeadlines, InjectedRefusedConnectIsUnavailable) {
  SilentListener silent;  // real listener; the fault fires first
  FaultInjector fi(1);
  FaultRule rule;
  rule.op = FaultOp::kConnect;
  rule.port = silent.port;
  rule.count = 1;
  rule.action = FaultAction::FailErrno(ECONNREFUSED);
  fi.AddRule(rule);
  ScopedFaultInjector scope(&fi);

  auto refused = CollectorClient::Connect("127.0.0.1", silent.port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("[injected]"), std::string::npos);
  EXPECT_EQ(fi.injected(FaultOp::kConnect), 1u);

  // The rule's window is spent: the next dial goes through.
  auto ok = CollectorClient::Connect("127.0.0.1", silent.port);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(TransportDeadlines, IdleConnectionsAreEvictedAndCounted) {
  // The idle timeout sits ten keep-alive periods above the 30 ms query
  // cadence below, so a scheduling stall on a loaded host cannot evict
  // the kept-alive connection as well.
  constexpr int kIdleTimeoutMs = 300;
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  options.idle_timeout_ms = kIdleTimeoutMs;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Say nothing; the endpoint must evict us.
  for (int spin = 0; spin < 600 && (*server)->stats().evicted_idle == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  CollectionServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.evicted_idle, 1u);
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.connections_closed, 1u);

  // The dropped connection surfaces client-side as a retryable error,
  // not a protocol violation — recovery reconnects through it.
  auto watermark = (*client)->QueryWatermark();
  ASSERT_FALSE(watermark.ok());
  EXPECT_TRUE(IsRetryableTransportError(watermark.status()))
      << watermark.status().ToString();

  // An active connection is never idle-evicted: queries keep it alive.
  // They run for three idle timeouts, so only completed frames
  // refreshing the idle clock can keep the connection open.
  auto fresh = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fresh.ok());
  const auto keepalive_start = Clock::now();
  while (ElapsedMs(keepalive_start) < 3 * kIdleTimeoutMs) {
    auto alive = (*fresh)->QueryWatermark();
    EXPECT_TRUE(alive.ok()) << alive.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_EQ((*server)->stats().evicted_idle, 1u);
}

TEST(TransportFlushBarrier, ConcurrentProducersUnderInjectedDelays) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  options.streaming.batch_size = 3;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Jittered recv scheduling on the endpoint: every producer's frames
  // race into the queue under random small stalls, seeded so the run
  // replays.
  FaultInjector fi(0xBEEF);
  FaultRule slow;
  slow.op = FaultOp::kRecv;
  slow.port = (*server)->port();
  slow.probability = 0.3;
  slow.action = FaultAction::DelayMs(2);
  fi.AddRule(slow);
  ScopedFaultInjector scope(&fi);

  constexpr int kProducers = 4;
  constexpr uint64_t kBatchesEach = 10;
  std::vector<std::thread> producers;
  std::vector<Status> outcomes(kProducers, Status::OK());
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        outcomes[t] = client.status();
        return;
      }
      for (uint64_t b = 0; b < kBatchesEach; ++b) {
        Status sent = (*client)->SendOrdinals(
            0, grr, {1, 2, static_cast<uint64_t>(t)});
        if (!sent.ok()) {
          outcomes[t] = sent;
          return;
        }
      }
      // Flush barrier: the reply certifies every batch this connection
      // sent has been handed to the collector queue.
      auto barrier = (*client)->QueryWatermark();
      if (!barrier.ok()) outcomes[t] = barrier.status();
    });
  }
  for (std::thread& t : producers) t.join();
  for (const Status& s : outcomes) ASSERT_TRUE(s.ok()) << s.ToString();

  // After every producer's barrier, the endpoint's watermark counts all
  // accepted batches exactly — delays shift timing, never the count.
  auto probe = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto watermark = (*probe)->QueryWatermark();
  ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
  EXPECT_EQ(*watermark, kProducers * kBatchesEach);

  const uint64_t n = kProducers * kBatchesEach * 3;
  auto result = (*probe)->FinishRound(0, n, 0, Calibration::kStandard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_decoded, n);

  // The round closed: the watermark resets for the next round.
  auto reset = (*probe)->QueryWatermark();
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(*reset, 0u);
}

TEST(TransportIndexedIngest, DuplicateStreamsIngestExactlyOnce) {
  // The recovery race the batch-index gate exists for: after a client
  // reconnects, the replaced connection's kernel buffers can still
  // deliver every batch the replay re-sends. Model the worst case — two
  // connections streaming the *same* indexed batches 0..19 concurrently
  // — and require exactly-once ingestion regardless of interleaving.
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  options.streaming.batch_size = 3;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr uint64_t kBatches = 20;
  std::vector<std::thread> streams;
  std::vector<Status> outcomes(2, Status::OK());
  for (int t = 0; t < 2; ++t) {
    streams.emplace_back([&, t] {
      auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        outcomes[t] = client.status();
        return;
      }
      for (uint64_t b = 0; b < kBatches; ++b) {
        // Identical payloads: batch b carries {1, 2, b % 16} on both
        // streams, exactly what a replay of the same log produces.
        Status sent = (*client)->SendOrdinals(0, b, grr, {1, 2, b % 16});
        if (!sent.ok()) {
          outcomes[t] = sent;
          return;
        }
      }
      auto barrier = (*client)->QueryWatermark();
      if (!barrier.ok()) outcomes[t] = barrier.status();
    });
  }
  for (std::thread& t : streams) t.join();
  for (const Status& s : outcomes) ASSERT_TRUE(s.ok()) << s.ToString();

  // Every index accepted once, every second arrival dropped: 40 frames
  // in, watermark 20, 20 dedups, and the round tallies 20 batches.
  auto probe = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto watermark = (*probe)->QueryWatermark();
  ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
  EXPECT_EQ(*watermark, kBatches);
  EXPECT_EQ((*server)->stats().batches_deduped, kBatches);

  const uint64_t n = kBatches * 3;
  auto result = (*probe)->FinishRound(0, n, 0, Calibration::kStandard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_decoded, n);
}

TEST(TransportIndexedIngest, StaleDuplicateDroppedAndGapRejected) {
  ldp::Grr grr(2.0, 16);
  auto server = CollectionServer::Start(grr, CollectionServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendOrdinals(0, 0, grr, {1, 2, 3}).ok());
  ASSERT_TRUE((*client)->SendOrdinals(0, 1, grr, {4, 5, 6}).ok());
  auto mark = (*client)->QueryWatermark();
  ASSERT_TRUE(mark.ok());
  EXPECT_EQ(*mark, 2u);

  // A stale index (a straggler from a replaced connection) is dropped
  // silently — the connection stays healthy, the watermark holds.
  ASSERT_TRUE((*client)->SendOrdinals(0, 0, grr, {1, 2, 3}).ok());
  mark = (*client)->QueryWatermark();
  ASSERT_TRUE(mark.ok()) << mark.status().ToString();
  EXPECT_EQ(*mark, 2u);
  EXPECT_EQ((*server)->stats().batches_deduped, 1u);

  // A future index means a batch was lost in between: fatal, and the
  // error must not be retryable (a replay cannot fill the hole).
  ASSERT_TRUE((*client)->SendOrdinals(0, 5, grr, {7, 8, 9}).ok());
  auto violated = (*client)->QueryWatermark();
  ASSERT_FALSE(violated.ok());
  EXPECT_EQ(violated.status().code(), StatusCode::kProtocolViolation)
      << violated.status().ToString();
  EXPECT_FALSE(IsRetryableTransportError(violated.status()));
}

TEST(TransportFlushBarrier, WatermarkRoundPairConsistentAcrossRoundClose) {
  // A watermark query racing a round close must answer either
  // (old round, old count) or (new round, 0) — never the torn pair
  // (old round, new zeroed count), which recovery would treat as "the
  // endpoint consumed nothing" and fail the round on a phantom round
  // mismatch after replay. Hammer the close boundary across rounds.
  ldp::Grr grr(2.0, 16);
  auto server = CollectionServer::Start(grr, CollectionServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto producer = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(producer.ok());
  auto closer = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(closer.ok());

  constexpr uint64_t kRounds = 8;
  constexpr uint64_t kBatches = 5;
  for (uint64_t r = 0; r < kRounds; ++r) {
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*producer)->SendOrdinals(r, b, grr, {1, 2, 3}).ok());
    }
    // Barrier: all 5 batches are ingested before the close starts, so
    // on this connection (round r, w) is only ever valid with w == 5.
    auto barrier = (*producer)->QueryWatermark();
    ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
    ASSERT_EQ(*barrier, kBatches);

    std::thread close([&] {
      auto result =
          (*closer)->FinishRound(r, kBatches * 3, 0, Calibration::kStandard);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    });
    uint64_t seen_round = r;
    while (seen_round == r) {
      uint64_t reply_round = 0;
      auto mark = (*producer)->QueryWatermark(&reply_round);
      ASSERT_TRUE(mark.ok()) << mark.status().ToString();
      if (reply_round == r) {
        EXPECT_EQ(*mark, kBatches) << "torn (old round, reset count) pair";
      } else {
        ASSERT_EQ(reply_round, r + 1);
        EXPECT_EQ(*mark, 0u) << "torn (new round, stale count) pair";
      }
      seen_round = reply_round;
    }
    close.join();
  }
}

TEST(TransportFaultInjection, TruncateSendZeroClampsToOneByte) {
  // TruncateSend(0) must not script a 0-length ::send — its 0 return
  // would be mislabeled with a stale errno. The action clamps to the
  // smallest real torn write instead.
  EXPECT_EQ(FaultAction::TruncateSend(0).max_bytes, 1u);

  ldp::Grr grr(2.0, 16);
  auto server = CollectionServer::Start(grr, CollectionServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  FaultInjector fi(7);
  FaultRule torn;
  torn.op = FaultOp::kSend;
  torn.port = (*server)->port();
  torn.count = 1;
  torn.action = FaultAction::TruncateSend(0);
  fi.AddRule(torn);
  ScopedFaultInjector scope(&fi);

  // The first client send is torn to a single byte; the frame must
  // still complete (resumed sends) rather than fail spuriously.
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto mark = (*client)->QueryWatermark();
  EXPECT_TRUE(mark.ok()) << mark.status().ToString();
  EXPECT_EQ(fi.injected(FaultOp::kSend), 1u);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
