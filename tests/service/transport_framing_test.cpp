// Transport framing: codec round trips, the byte-exact golden vector
// documented in docs/WIRE_FORMAT.md, hostile-stream handling, and a
// socket-level check that a garbage connection cannot take the endpoint
// down.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>
#include <vector>

#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "ldp/wire.h"
#include "service/coordinator.h"
#include "service/transport.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

Frame MakeBatchFrame(uint64_t round_id, Bytes payload) {
  Frame frame;
  frame.type = FrameType::kBatch;
  frame.round_id = round_id;
  frame.payload = std::move(payload);
  return frame;
}

// The worked example in docs/WIRE_FORMAT.md, byte for byte: a kBatch
// frame for round 5 carrying the ordinals {3, 7} of a GRR oracle with
// d = 11 (PackedBits = 4, one byte per ordinal). If this test breaks,
// the documentation is lying — fix the doc with the new bytes or the
// code, never the test alone.
TEST(TransportFraming, GoldenVectorMatchesWireFormatDoc) {
  ldp::Grr grr(2.0, 11);
  ASSERT_EQ(grr.PackedBits(), 4u);
  Bytes payload = ldp::SerializeOrdinals(grr, {3, 7});
  const Bytes expected_payload = {0x02, 0x03, 0x07};
  EXPECT_EQ(payload, expected_payload);

  Bytes wire = EncodeFrame(MakeBatchFrame(5, payload));
  const Bytes expected_wire = {
      0x53, 0x44, 0x50, 0x43,                          // magic "SDPC"
      0x02,                                            // version
      0x01,                                            // type kBatch
      0x00, 0x00,                                      // partition 0
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round id 5
      0x03, 0x00, 0x00, 0x00,                          // payload length 3
      0x0B, 0x86, 0x02, 0x9C,                          // CRC-32(hdr+payload)
      0x02, 0x03, 0x07,                                // payload
  };
  EXPECT_EQ(wire, expected_wire);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire).ok());
  Frame decoded;
  ASSERT_TRUE(decoder.Next(&decoded));
  EXPECT_EQ(decoded.type, FrameType::kBatch);
  EXPECT_EQ(decoded.partition, 0u);
  EXPECT_EQ(decoded.round_id, 5u);
  EXPECT_EQ(decoded.payload, expected_payload);
}

// The kQuery request from docs/WIRE_FORMAT.md, byte for byte: an
// empty-payload frame whose header carries the queried round id (3
// here). The CRC still covers the header, so a corrupted query cannot
// silently ask about the wrong round.
TEST(TransportFraming, QueryFrameGoldenVectorMatchesWireFormatDoc) {
  Frame frame;
  frame.type = FrameType::kQuery;
  frame.round_id = 3;

  Bytes wire = EncodeFrame(frame);
  const Bytes expected_wire = {
      0x53, 0x44, 0x50, 0x43,                          // magic "SDPC"
      0x02,                                            // version
      0x08,                                            // type kQuery
      0x00, 0x00,                                      // partition 0
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round id 3
      0x00, 0x00, 0x00, 0x00,                          // payload length 0
      0xA2, 0x15, 0x67, 0x74,                          // CRC-32(header)
  };
  EXPECT_EQ(wire, expected_wire);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire).ok());
  Frame decoded;
  ASSERT_TRUE(decoder.Next(&decoded));
  EXPECT_EQ(decoded.type, FrameType::kQuery);
  EXPECT_EQ(decoded.round_id, 3u);
  EXPECT_TRUE(decoded.payload.empty());
}

// Reads exactly `len` bytes from a blocking socket.
bool RecvExactly(int fd, uint8_t* out, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

// What CollectorClient's indexed SendOrdinals puts on the socket for one
// producer batch, byte for byte: header, CRC, varint batch index, varint
// count and the big-endian two-byte ordinals (padding 1000 and 1023
// included).
TEST(TransportFraming, IndexedBatchFrameBytesArePinned) {
  ldp::Grr grr(2.0, 1000);
  ASSERT_EQ(grr.PackedBits(), 10u);
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len), 0);

  auto client = CollectorClient::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int fd = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE((*client)
                  ->SendOrdinals(/*round_id=*/9, /*batch_index=*/300, grr,
                                 {0, 5, 256, 999, 1000, 1023})
                  .ok());
  Bytes wire(kFrameHeaderBytes);
  ASSERT_TRUE(RecvExactly(fd, wire.data(), wire.size()));
  const size_t payload_len = wire[16] | (wire[17] << 8);
  wire.resize(kFrameHeaderBytes + payload_len);
  ASSERT_TRUE(RecvExactly(fd, wire.data() + kFrameHeaderBytes, payload_len));
  ::close(fd);
  ::close(listener);
  EXPECT_EQ(ToHex(wire),
            "534450430207000009000000000000000f000000994b9135"  // header
            "ac02"                                  // batch index 300
            "06"                                    // count 6
            "00000005010003e703e803ff");            // ordinals
}

// A bare TCP listener on an ephemeral loopback port that plays just
// enough of an endpoint (hello echo, watermark reply) for a routing
// client to connect and recover, so a test can read the exact bytes the
// client puts on each socket.
class RawEndpoint {
 public:
  RawEndpoint() {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listener_, 4);
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawEndpoint() {
    if (conn_ >= 0) ::close(conn_);
    ::close(listener_);
  }

  uint16_t port() const { return port_; }

  // Accepts the next connection (replacing the current one) and answers
  // its kHello by echoing the client's layout, with `round_id` as the
  // round this endpoint ingests.
  bool AcceptAndHello(uint64_t round_id) {
    if (conn_ >= 0) ::close(conn_);
    conn_ = ::accept(listener_, nullptr, nullptr);
    if (conn_ < 0) return false;
    timeval timeout{10, 0};  // a missing byte fails the test, not hangs it
    ::setsockopt(conn_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    Frame hello;
    if (!ReadFrame(&hello) || hello.type != FrameType::kHello) return false;
    hello.round_id = round_id;
    return Reply(hello);
  }

  // Answers one kWatermark query with `watermark` for `round_id`.
  bool AnswerWatermark(uint64_t round_id, uint64_t watermark) {
    Frame query;
    if (!ReadFrame(&query) || query.type != FrameType::kWatermark) {
      return false;
    }
    ByteWriter w;
    w.PutVarint(watermark);
    query.round_id = round_id;
    query.payload = w.Release();
    return Reply(query);
  }

  // The next frame's wire bytes, exactly as received.
  Bytes NextFrameBytes() {
    Bytes wire(kFrameHeaderBytes);
    if (!RecvExactly(conn_, wire.data(), wire.size())) return {};
    const size_t payload_len = wire[16] | (wire[17] << 8) |
                               (wire[18] << 16) |
                               (static_cast<size_t>(wire[19]) << 24);
    wire.resize(kFrameHeaderBytes + payload_len);
    if (!RecvExactly(conn_, wire.data() + kFrameHeaderBytes, payload_len)) {
      return {};
    }
    return wire;
  }

 private:
  bool ReadFrame(Frame* out) {
    FrameDecoder decoder;
    return decoder.Feed(NextFrameBytes()).ok() && decoder.Next(out);
  }
  bool Reply(const Frame& frame) {
    const Bytes wire = EncodeFrame(frame);
    return ::send(conn_, wire.data(), wire.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(wire.size());
  }

  int listener_ = -1;
  int conn_ = -1;
  uint16_t port_ = 0;
};

// A routing client connected to one RawEndpoint per partition, each
// handshaken for round `round_id`.
std::unique_ptr<PartitionRoutingClient> ConnectRaw(
    const ldp::ScalarFrequencyOracle& oracle, const PartitionMap& map,
    std::vector<std::unique_ptr<RawEndpoint>>* raw, uint64_t round_id) {
  std::vector<EndpointAddress> endpoints;
  for (uint32_t p = 0; p < map.partitions(); ++p) {
    raw->push_back(std::make_unique<RawEndpoint>());
    endpoints.push_back({"127.0.0.1", raw->back()->port()});
  }
  bool served = true;
  std::thread server([&] {
    for (auto& endpoint : *raw) {
      served = endpoint->AcceptAndHello(round_id) && served;
    }
  });
  auto routing = PartitionRoutingClient::Connect(oracle, map, endpoints);
  server.join();
  EXPECT_TRUE(served);
  EXPECT_TRUE(routing.ok()) << routing.status().ToString();
  return routing.ok() ? std::move(*routing) : nullptr;
}

// What PartitionRoutingClient::SendBatch puts on each endpoint socket,
// byte for byte, and what a recovery replay re-sends. By value at P = 3
// over GRR d = 1000 (slices [0,333) [333,666) [666,1000)): padding
// ordinals 1000–1023 route by residue mod 3, and batch 0 leaves
// partition 2 an empty indexed frame. By client at P = 2: each batch goes
// whole to batch_index mod 2 and the other endpoint gets an empty frame.
TEST(TransportFraming, RoutedBatchFrameBytesArePinned) {
  ldp::Grr grr(2.0, 1000);
  constexpr uint64_t kRound = 4;
  const std::vector<std::vector<uint64_t>> batches = {
      {5, 1000, 332, 1023, 0, 1003},   // p0 {5,332,1023,0}, p1 {1000,1003}
      {999, 333, 665, 666, 1001, 1002}};  // p0 {1002}, p1 {333,665}, p2 rest
  // expected[p][b]: header (partition id p at offset 6, round 4, length,
  // CRC), then varint batch index, varint count, two-byte ordinals.
  const std::vector<std::vector<std::string>> by_value = {
      {"534450430207000004000000000000000a000000bfe06aca"
       "0004" "0005014c03ff0000",
       "5344504302070000040000000000000004000000fa12bf49"
       "0101" "03ea"},
      {"53445043020701000400000000000000060000006cdd2cae"
       "0002" "03e803eb",
       "53445043020701000400000000000000060000009878dab7"
       "0102" "014d0299"},
      {"5344504302070200040000000000000002000000654112d9"
       "0000",
       "5344504302070200040000000000000008000000a9b84357"
       "0103" "03e7029a03e9"}};
  const std::vector<std::vector<std::string>> by_client = {
      {"534450430207000004000000000000000e0000003217e0fc"
       "0006" "000503e8014c03ff000003eb",
       "53445043020700000400000000000000020000004755a947"
       "0100"},
      {"534450430207010004000000000000000200000097f5daf0"
       "0000",
       "534450430207010004000000000000000e0000009fa020ec"
       "0106" "03e7014d0299029a03e903ea"}};
  for (PartitionMode mode :
       {PartitionMode::kByValue, PartitionMode::kByClient}) {
    const uint32_t partitions = mode == PartitionMode::kByValue ? 3 : 2;
    const auto& expected =
        mode == PartitionMode::kByValue ? by_value : by_client;
    auto map = PartitionMap::Create(grr, mode, partitions);
    ASSERT_TRUE(map.ok());
    std::vector<std::unique_ptr<RawEndpoint>> raw;
    auto routing = ConnectRaw(grr, *map, &raw, kRound);
    ASSERT_NE(routing, nullptr);
    for (uint64_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(routing->SendBatch(kRound, b, batches[b]).ok());
    }
    std::vector<std::vector<Bytes>> sent(partitions);
    for (uint32_t p = 0; p < partitions; ++p) {
      for (uint64_t b = 0; b < batches.size(); ++b) {
        sent[p].push_back(raw[p]->NextFrameBytes());
        EXPECT_EQ(ToHex(sent[p][b]), expected[p][b])
            << map->ToString() << " p=" << p << " batch " << b;
      }
    }
    // A recovery replays the logged frames from the watermark (0 here)
    // byte for byte on the fresh connection.
    for (uint32_t p = 0; p < partitions; ++p) {
      bool served = false;
      std::thread server([&] {
        served = raw[p]->AcceptAndHello(kRound) &&
                 raw[p]->AnswerWatermark(kRound, 0);
      });
      Status recovered = routing->RecoverPartition(p, kRound, batches.size());
      server.join();
      ASSERT_TRUE(served);
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();
      for (uint64_t b = 0; b < batches.size(); ++b) {
        EXPECT_EQ(raw[p]->NextFrameBytes(), sent[p][b])
            << map->ToString() << " replay p=" << p << " batch " << b;
      }
    }
  }
}

// A routed batch whose frame payload would exceed kMaxFramePayload is
// refused on the send side: InvalidArgument, no byte of it on the
// socket, and the endpoint never sees a protocol error. 2^21 + 1
// eight-byte ordinals make a payload just past the 16 MiB cap. (The
// oracle is the wire test's width-8 OLH with d' one below 2^32, a range
// the support kernel's 32-bit modulus can serve.)
TEST(TransportFraming, OversizedRoutedBatchIsRefusedBeforeTheSocket) {
  ldp::LocalHash wide(1.0, 100, (uint64_t{1} << 32) - 1, "OLH");
  ASSERT_EQ(ldp::WireReportBytes(wide), 8u);
  auto map = PartitionMap::Create(wide, PartitionMode::kByClient, 1);
  ASSERT_TRUE(map.ok());
  CollectionServerOptions options;
  options.partition_map = *map;
  auto server = CollectionServer::Start(wide, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto routing = PartitionRoutingClient::Connect(
      wide, *map, {{"127.0.0.1", (*server)->port()}});
  ASSERT_TRUE(routing.ok()) << routing.status().ToString();

  const std::vector<uint64_t> oversized((uint64_t{1} << 21) + 1, 7);
  Status refused = (*routing)->SendBatch(0, 0, oversized);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  // The connection is still in frame sync: a watermark query answers 0
  // (nothing accepted, nothing half-sent), and a normal batch 0 lands.
  auto mark = (*routing)->QueryWatermark(0);
  ASSERT_TRUE(mark.ok()) << mark.status().ToString();
  EXPECT_EQ(*mark, 0u);
  ASSERT_TRUE((*routing)->SendBatch(0, 0, {1, 2, 3}).ok());
  mark = (*routing)->QueryWatermark(0);
  ASSERT_TRUE(mark.ok()) << mark.status().ToString();
  EXPECT_EQ(*mark, 1u);
  EXPECT_EQ((*server)->stats().protocol_errors, 0u);
}

TEST(TransportFraming, PartitionFieldRoundTrips) {
  Frame frame = MakeBatchFrame(7, Bytes{1, 2, 3});
  frame.partition = 0xBEEF;
  Bytes wire = EncodeFrame(frame);
  EXPECT_EQ(wire[6], 0xEF);  // partition id, u16 LE at offset 6
  EXPECT_EQ(wire[7], 0xBE);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire).ok());
  Frame decoded;
  ASSERT_TRUE(decoder.Next(&decoded));
  EXPECT_EQ(decoded.partition, 0xBEEFu);
  EXPECT_EQ(decoded.round_id, 7u);
}

TEST(TransportFraming, TornFeedReassemblesEveryFrame) {
  std::vector<Frame> frames;
  Rng rng(11);
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    Bytes payload(rng.UniformU64(200));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
    frames.push_back(MakeBatchFrame(i, payload));
    Bytes wire = EncodeFrame(frames.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  // One byte at a time: every frame must come out intact, none early.
  FrameDecoder decoder;
  size_t decoded_count = 0;
  for (uint8_t byte : stream) {
    ASSERT_TRUE(decoder.Feed(&byte, 1).ok());
    Frame out;
    while (decoder.Next(&out)) {
      ASSERT_LT(decoded_count, frames.size());
      EXPECT_EQ(out.round_id, frames[decoded_count].round_id);
      EXPECT_EQ(out.payload, frames[decoded_count].payload);
      ++decoded_count;
    }
  }
  EXPECT_EQ(decoded_count, frames.size());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(TransportFraming, TruncatedStreamIsPendingNotError) {
  Bytes wire = EncodeFrame(MakeBatchFrame(1, Bytes{1, 2, 3, 4}));
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(wire.data(), len).ok()) << "len=" << len;
    Frame out;
    EXPECT_FALSE(decoder.Next(&out)) << "len=" << len;
  }
}

TEST(TransportFraming, BadMagicIsRejected) {
  Bytes wire = EncodeFrame(MakeBatchFrame(1, Bytes{1}));
  wire[0] ^= 0xFF;
  FrameDecoder decoder;
  Status st = decoder.Feed(wire);
  EXPECT_EQ(st.code(), StatusCode::kProtocolViolation);
}

TEST(TransportFraming, VersionSkewIsRejected) {
  Bytes wire = EncodeFrame(MakeBatchFrame(1, Bytes{1}));
  wire[4] = kWireVersion + 1;
  FrameDecoder decoder;
  Status st = decoder.Feed(wire);
  EXPECT_EQ(st.code(), StatusCode::kProtocolViolation);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(TransportFraming, UnknownTypeIsRejected) {
  Bytes wire = EncodeFrame(MakeBatchFrame(1, Bytes{1}));
  wire[5] = 0x7F;  // unknown frame type
  FrameDecoder decoder;
  EXPECT_EQ(decoder.Feed(wire).code(), StatusCode::kProtocolViolation);
}

TEST(TransportFraming, LengthLieBeyondCapIsRejectedBeforeBuffering) {
  Bytes wire = EncodeFrame(MakeBatchFrame(1, Bytes{1}));
  // Lie: 0xFFFFFFFF payload bytes allegedly follow.
  wire[16] = wire[17] = wire[18] = wire[19] = 0xFF;
  FrameDecoder decoder;
  Status st = decoder.Feed(wire);
  EXPECT_EQ(st.code(), StatusCode::kProtocolViolation);
  EXPECT_NE(st.message().find("cap"), std::string::npos);
}

TEST(TransportFraming, PayloadCorruptionFailsTheCrc) {
  Bytes payload(64, 0xAB);
  Bytes wire = EncodeFrame(MakeBatchFrame(9, payload));
  for (size_t byte = kFrameHeaderBytes; byte < wire.size(); byte += 7) {
    Bytes mutated = wire;
    mutated[byte] ^= 0x01;
    FrameDecoder decoder;
    Status st = decoder.Feed(mutated);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "byte=" << byte;
  }
}

TEST(TransportFraming, ErrorsAreSticky) {
  Bytes bad = EncodeFrame(MakeBatchFrame(1, Bytes{1}));
  bad[0] ^= 0xFF;
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(bad).ok());
  // A pristine frame after the poison must not resurrect the stream.
  Bytes good = EncodeFrame(MakeBatchFrame(2, Bytes{2}));
  EXPECT_FALSE(decoder.Feed(good).ok());
  Frame out;
  EXPECT_FALSE(decoder.Next(&out));
}

TEST(TransportFraming, RoundResultCodecRoundTripsAndRejectsHostileBytes) {
  RemoteRoundResult result;
  result.supports = {5, 0, 123456789, 42};
  result.estimates = {0.5, -0.001, 0.25, 0.125};
  result.reports_decoded = 1000;
  result.reports_invalid = 7;
  result.dummies_recognized = 3;
  result.spot_check_passed = false;

  Bytes payload = SerializeRoundResult(result);
  auto parsed = ParseRoundResult(payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->supports, result.supports);
  EXPECT_EQ(parsed->estimates, result.estimates);
  EXPECT_EQ(parsed->reports_decoded, result.reports_decoded);
  EXPECT_EQ(parsed->reports_invalid, result.reports_invalid);
  EXPECT_EQ(parsed->dummies_recognized, result.dummies_recognized);
  EXPECT_FALSE(parsed->spot_check_passed);

  for (size_t len = 0; len < payload.size(); ++len) {
    Bytes truncated(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(ParseRoundResult(truncated).ok()) << "len=" << len;
  }
  // A lying domain size must fail fast, not allocate.
  ByteWriter w;
  w.PutVarint(0);
  w.PutVarint(0);
  w.PutVarint(0);
  w.PutU8(1);
  w.PutVarint(uint64_t{1} << 60);
  EXPECT_FALSE(ParseRoundResult(w.data()).ok());
}

TEST(TransportFraming, RawSupportsResultCarriesZeroEstimates) {
  RemoteRoundResult result;
  result.supports = {4, 5, 6};
  result.reports_decoded = 15;
  Bytes payload = SerializeRoundResult(result);
  auto parsed = ParseRoundResult(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->supports, result.supports);
  EXPECT_TRUE(parsed->estimates.empty());

  // An estimate count that is neither 0 nor d is corrupt, not a partial
  // calibration.
  ByteWriter w;
  w.PutVarint(0);  // decoded
  w.PutVarint(0);  // invalid
  w.PutVarint(0);  // dummies recognized
  w.PutVarint(0);  // dummies expected
  w.PutU8(1);      // spot check
  w.PutVarint(2);  // d = 2
  w.PutVarint(1);
  w.PutVarint(1);  // supports
  w.PutVarint(1);  // e = 1: neither 0 nor d
  w.PutDouble(0.5);
  EXPECT_FALSE(ParseRoundResult(w.data()).ok());
}

TEST(TransportFraming, HelloHandshakeAgreesAndRejectsMismatch) {
  ldp::Grr grr(2.0, 32);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 2);
  ASSERT_TRUE(map.ok());

  CollectionServerOptions options;
  options.partition_map = *map;
  options.partition_id = 1;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  {
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto round = (*client)->Hello(*map, 1);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(*round, 0u);
    EXPECT_EQ((*client)->partition(), 1u);
  }
  {
    // Wrong partition id: the endpoint owns 1, the client expects 0.
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto round = (*client)->Hello(*map, 0);
    ASSERT_FALSE(round.ok());
    EXPECT_EQ(round.status().code(), StatusCode::kProtocolViolation);
  }
  {
    // Wrong layout: same endpoint, a 4-way map.
    auto other = PartitionMap::Create(grr, PartitionMode::kByValue, 4);
    ASSERT_TRUE(other.ok());
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    auto round = (*client)->Hello(*other, 1);
    ASSERT_FALSE(round.ok());
    EXPECT_EQ(round.status().code(), StatusCode::kProtocolViolation);
  }
}

TEST(TransportFraming, PortCollisionReportsAddrInUseDistinctly) {
  ldp::Grr grr(2.0, 8);
  CollectionServerOptions options;  // port 0: kernel-assigned, race-free
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok());
  ASSERT_NE((*server)->port(), 0u);  // surfaced before any accept

  CollectionServerOptions clash;
  clash.port = (*server)->port();
  auto second = CollectionServer::Start(grr, clash);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(second.status().message().find("EADDRINUSE"),
            std::string::npos);
}

// A connection that sends garbage must be dropped without disturbing a
// well-behaved client on the same endpoint.
TEST(TransportFraming, GarbageConnectionDoesNotKillTheEndpoint) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  options.streaming.batch_size = 64;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  {
    // Raw socket, no framing: 4 KiB of noise.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons((*server)->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)), 0);
    Rng rng(3);
    Bytes noise(4096);
    for (auto& b : noise) b = static_cast<uint8_t>(rng.NextU64());
    ::send(fd, noise.data(), noise.size(), MSG_NOSIGNAL);
    ::close(fd);
  }

  // The endpoint must still complete a clean round.
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Rng rng(4);
  std::vector<ldp::LdpReport> reports;
  for (int i = 0; i < 500; ++i) reports.push_back(grr.Encode(i % 16, &rng));
  const uint64_t round = (*server)->round_id();
  ASSERT_TRUE((*client)->SendReports(round, grr, reports).ok());
  auto result = (*client)->FinishRound(round, 500, 0,
                                       Calibration::kStandard);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reports_decoded, 500u);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
