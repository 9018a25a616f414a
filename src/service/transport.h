// Networked collection endpoint: framing protocol + TCP server/client.
//
// The paper's deployment story is an auxiliary-server *service*: millions
// of users submit reports to a collection endpoint across EOS/SS rounds.
// This header turns src/service/ into that endpoint. Reports travel in
// length-prefixed, CRC-guarded binary frames over plain TCP (a gRPC/TLS
// front end is a ROADMAP follow-up); the server multiplexes every
// connection over one epoll readiness loop thread and feeds every
// decoded batch straight into a PartitionWorker, so the wire path and
// the in-process path share one aggregation pipeline — the loopback
// e2e test asserts the two produce bitwise-identical estimates.
//
// Frame layout (fixed 24-byte header, integers little-endian; the full
// spec with worked byte-level examples is docs/WIRE_FORMAT.md):
//
//   offset size field
//   0      4    magic "SDPC" (0x53 0x44 0x50 0x43)
//   4      1    version (kWireVersion)
//   5      1    frame type (FrameType)
//   6      2    partition id (u16) — which endpoint slice the frame
//               targets; 0 for single-node deployments (wire v1 called
//               these bytes reserved-zero, so v1 traffic is v2 traffic
//               for partition 0 apart from the version byte)
//   8      8    round id (u64)
//   16     4    payload length (u32, <= kMaxFramePayload)
//   20     4    CRC-32 over header bytes 0–19 then the payload
//   24     ..   payload
//
// Frame types and payloads:
//   kBatch     client→server  ldp::SerializeOrdinals bytes (varint count
//                             + fixed-width big-endian ordinals; padding
//                             ordinals allowed — the server drops them as
//                             invalid rows, PEOS-fake style)
//   kBatchIndexed
//              client→server  varint producer batch index, then the same
//                             SerializeOrdinals bytes as kBatch. The
//                             endpoint accepts the frame only when the
//                             index equals its consumed-batch count:
//                             a stale index (a duplicate — e.g. frames a
//                             replaced connection was still draining
//                             while recovery replayed them on a fresh
//                             one) is dropped silently, a future index
//                             (a gap: a batch was lost) is a protocol
//                             violation. This is what makes the
//                             reconnect-and-replay recovery dance
//                             exactly-once; the index gate assumes ONE
//                             indexed producer stream per endpoint per
//                             round, indices contiguous from 0 (the
//                             partition-routing client's topology).
//   kFinish    client→server  varint n, varint n_fake, u8 calibration
//   kResult    server→client  varint decoded, varint invalid, varint
//                             dummies recognized, varint dummies
//                             expected, u8 spot_check, varint d,
//                             d × varint supports, varint e (0 or d),
//                             e × f64 estimates (e = 0 for the raw
//                             merge-before-calibrate supports a
//                             partition worker returns under
//                             Calibration::kNone)
//   kError     server→client  u8 status code, varint-length message
//   kWatermark both           query: empty payload; reply: varint
//                             consumed-batch watermark — how many of
//                             the ingesting round's batch frames this
//                             endpoint has accepted into its collector
//                             queue (crash recovery seeds it from the
//                             restored round state), with the header
//                             round id naming the round it counts; the
//                             pair is read atomically under the ingest
//                             gate, so a reply can never pair one
//                             round's id with another round's count. A
//                             resuming or reconnecting client replays
//                             from exactly this batch index; 0 = send
//                             from the beginning. As a *replay floor*
//                             the watermark is only meaningful under
//                             the kBatchIndexed single-producer
//                             contract above — with plain kBatch
//                             traffic from several connections it is a
//                             global count no single producer can
//                             replay against. Doubles as a flush
//                             barrier either way: the reply is sent
//                             only after every earlier frame on the
//                             connection has been handed to the
//                             collector queue.
//   kQuery     both           round status query against the durable
//                             round store (round_store.h), with the
//                             header round id naming the queried round.
//                             Request: empty payload. Reply: u8 status
//                             (RoundStatus wire value), u8 flags (bit 0
//                             = durability degraded), varint watermark
//                             (accepted batches for the live round,
//                             durably consumed batches for stored
//                             rounds), then — only when status is
//                             kFinalized — varint n, varint n_fake,
//                             u8 calibration, and the same result bytes
//                             as kResult. Like kWatermark it is a pure
//                             query and skips the partition check, so a
//                             prober can ask without a handshake.
//   kHello     both           partition handshake: SerializePartitionMap
//                             bytes + varint partition id. The client
//                             states the layout it was configured with
//                             and the partition it believes this
//                             endpoint owns; a mismatch is a protocol
//                             violation (kError + drop). The server
//                             echoes its own map + id, with the header
//                             round id set to the round it is currently
//                             ingesting.
//
// Every frame is validated before use: bad magic, version skew, a length
// field beyond kMaxFramePayload, or a CRC mismatch is a hard error and
// the server drops the connection (after a best-effort kError frame). A
// batch for a partition the endpoint does not own — by header id, or
// under kByValue maps by any contained ordinal — is rejected the same
// way: misrouted reports must never be silently miscounted.

#ifndef SHUFFLEDP_SERVICE_TRANSPORT_H_
#define SHUFFLEDP_SERVICE_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "service/partition.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

inline constexpr uint8_t kFrameMagic[4] = {'S', 'D', 'P', 'C'};
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 24;
/// Upper bound on a frame payload: rejects length lies before any
/// allocation. 16 MiB fits ~2M 8-byte reports per batch frame.
inline constexpr uint32_t kMaxFramePayload = 1u << 24;

enum class FrameType : uint8_t {
  kBatch = 1,
  kFinish = 2,
  kResult = 3,
  kError = 4,
  kWatermark = 5,
  kHello = 6,
  kBatchIndexed = 7,
  kQuery = 8,  ///< round status/history query (round_store.h)
};

/// One protocol frame (header fields + payload).
struct Frame {
  FrameType type = FrameType::kBatch;
  uint16_t partition = 0;
  uint64_t round_id = 0;
  Bytes payload;
};

/// Serializes a frame (header + CRC + payload) into wire bytes.
Bytes EncodeFrame(const Frame& frame);

/// Incremental frame parser over an arbitrarily chunked byte stream
/// (frames may arrive torn across reads). Feed() buffers bytes and
/// validates each completed header and payload CRC; decoded frames queue
/// up for Next(). The first malformed byte poisons the decoder — every
/// later Feed() returns the same error, matching drop-the-connection
/// semantics.
class FrameDecoder {
 public:
  /// Appends stream bytes and parses as many complete frames as they
  /// finish. Errors (bad magic, version skew, oversized length, CRC
  /// mismatch) are sticky.
  Status Feed(const uint8_t* data, size_t len);
  Status Feed(const Bytes& data) { return Feed(data.data(), data.size()); }

  /// Pops the next completed frame; false when none is pending.
  bool Next(Frame* out);

  /// Bytes buffered but not yet forming a complete frame.
  size_t buffered_bytes() const { return buf_.size(); }

 private:
  Bytes buf_;
  std::deque<Frame> ready_;
  Status error_ = Status::OK();
};

/// The subset of RoundResult that crosses the wire in a kResult frame
/// (pipeline stats stay server-side). `estimates` is empty when the
/// round closed with Calibration::kNone — raw supports for the merge
/// coordinator.
struct RemoteRoundResult {
  std::vector<uint64_t> supports;
  std::vector<double> estimates;
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  bool spot_check_passed = true;
};

/// kResult payload codec (also reused by the tests' golden vectors).
Bytes SerializeRoundResult(const RemoteRoundResult& result);
Result<RemoteRoundResult> ParseRoundResult(const Bytes& payload);

/// Decoded kQuery reply: the endpoint's durable view of one round.
struct RoundQuery {
  RoundStatus status = RoundStatus::kUnknown;
  /// The round's durability was downgraded by an out-of-space store —
  /// the result (when finalized) is correct but would not have survived
  /// a crash before it was read.
  bool durability_degraded = false;
  /// Accepted batches for the live round; durably consumed batches for
  /// stored rounds (0 when served from the in-memory result stash).
  uint64_t watermark = 0;
  // Populated only when status == kFinalized:
  uint64_t n = 0;
  uint64_t n_fake = 0;
  uint8_t calibration = 0;  ///< Calibration wire value
  RemoteRoundResult result;
};

/// Per-operation deadlines for the client side of the endpoint. Every
/// value is milliseconds; <= 0 disables that deadline (the seed's
/// block-forever behavior, kept available for debugging but not the
/// default — a blackholed peer must surface as kDeadlineExceeded, never
/// as a hang). Deadlines are per operation: each Send*/ReadFrame call
/// gets a fresh one.
struct CollectorClientOptions {
  /// Nonblocking connect + poll bound; a blackholed address fails with
  /// kDeadlineExceeded naming the endpoint instead of hanging in
  /// ::connect.
  int connect_timeout_ms = 10000;
  /// Whole-frame read bound (covers every recv a frame needs). Must
  /// exceed the worst-case server round-drain for FinishRound reads.
  int read_timeout_ms = 120000;
  /// Full-buffer write bound: a stalled peer that stops draining its
  /// socket fails the send instead of wedging the producer.
  int write_timeout_ms = 60000;
};

/// Per-connection lifecycle counters for a collection endpoint
/// (monotonic over the server's lifetime; read via
/// CollectionServer::stats()).
struct CollectionServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;   ///< all closes, any cause
  uint64_t evicted_idle = 0;         ///< idle-timeout evictions
  uint64_t evicted_slow = 0;         ///< write-deadline evictions
  /// Write-queue overflow evictions (the drop-slowest policy): the
  /// connection's pending reply backlog exceeded write_queue_max_bytes
  /// because the peer would not drain its socket.
  uint64_t evicted_overflow = 0;
  uint64_t protocol_errors = 0;      ///< connections dropped on bad frames
  uint64_t frames_handled = 0;       ///< frames fully processed
  /// kBatchIndexed frames dropped as already-consumed duplicates (a
  /// replaced connection's stragglers racing a recovery replay).
  uint64_t batches_deduped = 0;
};

/// Collection endpoint configuration.
struct CollectionServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// port(), which is valid as soon as Start() returns and before the
  /// accept loop admits its first connection — the race-free pattern the
  /// loopback tests and examples rely on). A fixed port that is already
  /// taken fails with AlreadyExists naming EADDRINUSE after a bounded
  /// retry; prefer port 0 anywhere tests run in parallel. The listener
  /// binds 127.0.0.1 only: the endpoint speaks unauthenticated
  /// cleartext, so exposure beyond the host belongs behind the gRPC/TLS
  /// front end tracked in ROADMAP.md.
  uint16_t port = 0;
  /// Ingestion pipeline knobs, including the durable round store.
  StreamingOptions streaming;
  /// The partition layout this endpoint participates in and the slice it
  /// owns. Defaults to the single-node 1-of-1 layout (partition id 0),
  /// which every pre-partition client speaks implicitly. The streaming
  /// worker's slice is derived from these — any partition slice set in
  /// `streaming.partition` is overridden.
  PartitionMap partition_map;
  uint32_t partition_id = 0;
  /// When true and the configured round store (streaming.round_store)
  /// holds state, Start() recovers before accepting traffic: every
  /// stored round loads through RoundStore::LoadAll — a live mid-round
  /// state restores into the collector (clients query the consumed-batch
  /// watermark and resume from it), and the newest finalized round
  /// replays into the result stash, so a kFinish re-request for it is
  /// answered instead of rejected.
  bool recover = false;
  int listen_backlog = 16;
  /// Bounded per-connection write queue (encoded reply bytes awaiting the
  /// socket). A peer that requests replies faster than it drains them
  /// grows this backlog; past the bound the connection is dropped (the
  /// drop-slowest policy, counted in stats().evicted_overflow) instead of
  /// growing server memory without limit. A single reply larger than the
  /// bound is always admitted to an empty queue — the bound limits
  /// *backlog*, not frame size.
  size_t write_queue_max_bytes = 4u << 20;
  /// Slow-client eviction: a connection whose pending server→client
  /// write (result, watermark, error frames) makes no progress for this
  /// long is dropped and counted in stats().evicted_slow. <= 0 disables.
  int write_timeout_ms = 60000;
  /// Idle-connection eviction: a connection that completes no frame for
  /// this long is dropped and counted in stats().evicted_idle. The clock
  /// resets on each *completed* frame, not each received byte, so a
  /// byte-at-a-time slowloris sender is evicted on schedule. <= 0
  /// disables (the default — coordinator connections legitimately sit
  /// idle between rounds; fleets that hold thousands of client
  /// connections set this).
  int idle_timeout_ms = 0;
  /// How long a kFinish for the *previous* round waits for that round's
  /// in-flight drain before being rejected. This is the reconnect-and-
  /// refinish window: a coordinator whose connection died between
  /// SendFinish and the result reply re-sends the finish on a fresh
  /// connection, which may land while the original close is still
  /// draining.
  int result_rewait_ms = 15000;
};

/// TCP collection endpoint: one epoll readiness loop thread
/// multiplexing every accepted socket, all feeding one
/// partition-scoped streaming worker. Each connection is
/// nonblocking and carries its own FrameDecoder; idle and write
/// deadlines ride a hashed timer wheel instead of per-operation
/// poll(). Round closes (kFinish) hand their drain wait to a detached
/// finisher thread so one coordinator's multi-second drain never
/// stalls the loop — the requesting connection pauses (exactly the
/// old one-reader-blocked semantics, per connection) while every
/// other connection keeps streaming.
/// Plain kBatch frames from multiple connections interleave safely
/// (integer-counter aggregation is order-independent); kBatchIndexed
/// frames additionally pass the exactly-once index gate, which assumes
/// a single indexed producer stream per round (its reconnects may
/// overlap — stragglers a dying connection is still draining are
/// deduplicated against the replay). Round control (kFinish) is
/// expected from a single coordinator connection at a time. Senders on
/// other connections synchronize with a kWatermark flush barrier before
/// the coordinator closes the round.
class CollectionServer {
 public:
  /// Binds, listens, recovers (when configured), and starts accepting.
  static Result<std::unique_ptr<CollectionServer>> Start(
      const ldp::ScalarFrequencyOracle& oracle,
      CollectionServerOptions options);

  ~CollectionServer();

  CollectionServer(const CollectionServer&) = delete;
  CollectionServer& operator=(const CollectionServer&) = delete;

  /// The bound port (resolves ephemeral port 0).
  uint16_t port() const { return port_; }

  /// Watermark restored by crash recovery (0 on a fresh start).
  uint64_t recovered_watermark() const { return recovered_watermark_; }

  /// The durable round store backing this endpoint (shared with the
  /// streaming worker; null when persistence is off).
  const std::shared_ptr<RoundStore>& store() const { return store_; }

  /// Id of the round currently ingesting.
  uint64_t round_id() const;

  /// Snapshot of the per-connection lifecycle counters.
  CollectionServerStats stats() const;

  /// Stops accepting, drops every connection, and joins all threads.
  /// Idempotent; the destructor calls it. The round store on disk is
  /// left untouched (that is the crash-recovery artifact).
  void Shutdown();

 private:
  CollectionServer(const ldp::ScalarFrequencyOracle& oracle,
                   CollectionServerOptions options);

  /// The epoll readiness loop: owns the epoll fd, a wakeup eventfd, a
  /// timer wheel, and every connection. Defined in the .cpp —
  /// connection state never leaves the loop thread.
  class EventLoop;

  /// One in-flight kFinish wait, offloaded from the loop thread (the
  /// round drain can take seconds). `done` flips as the thread's last
  /// action so DispatchFinish can reap completed workers promptly
  /// instead of accumulating joinable threads until shutdown.
  struct FinishWorker {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Hands a kFinish wait to a fresh finisher thread. `closing` says the
  /// ingest gate already swung (live close; `future` carries the drain);
  /// otherwise the worker waits on the re-finish result stash. The reply
  /// (or failure) is posted back to the loop against `conn_id`.
  void DispatchFinish(uint64_t conn_id, bool closing,
                      std::future<Result<RoundResult>> future,
                      uint64_t round_id, uint64_t n, uint64_t n_fake,
                      uint8_t calibration, uint16_t reply_partition);
  void RunFinish(uint64_t conn_id, bool closing,
                 std::future<Result<RoundResult>> future, uint64_t round_id,
                 uint64_t n, uint64_t n_fake, uint8_t calibration,
                 uint16_t reply_partition);
  void ReapFinishWorkersLocked();
  void StashRoundResult(uint64_t round_id, uint64_t n, uint64_t n_fake,
                        uint8_t calibration, RemoteRoundResult result,
                        bool durability_degraded);

  const ldp::ScalarFrequencyOracle& oracle_;
  CollectionServerOptions options_;
  std::shared_ptr<RoundStore> store_;  ///< shared with collector_
  std::unique_ptr<PartitionWorker> collector_;
  uint16_t port_ = 0;
  uint64_t recovered_watermark_ = 0;
  uint64_t recovered_round_ = 0;
  // The last finalized round result, kept so a coordinator whose
  // connection died in the close-to-read window can reconnect and
  // re-send the kFinish: the re-request is served from this stash
  // instead of failing the round-id check — but only when its close
  // parameters match the stashed ones, so a caller can never receive a
  // result computed under parameters it did not ask for. Populated by
  // every live round close and by finalized-round journal replay at
  // recovery; guarded by result_mu_ (multiple reader threads), with
  // result_cv_ waking re-finish waiters when a drain completes.
  mutable std::mutex result_mu_;
  std::condition_variable result_cv_;
  bool have_last_result_ = false;
  uint64_t last_round_ = 0;
  uint64_t last_n_ = 0;
  uint64_t last_n_fake_ = 0;
  uint8_t last_calibration_ = 0;
  bool last_durability_degraded_ = false;
  RemoteRoundResult last_result_;
  // Lifecycle counters behind stats().
  std::atomic<uint64_t> stat_accepted_{0};
  std::atomic<uint64_t> stat_closed_{0};
  std::atomic<uint64_t> stat_evicted_idle_{0};
  std::atomic<uint64_t> stat_evicted_slow_{0};
  std::atomic<uint64_t> stat_evicted_overflow_{0};
  std::atomic<uint64_t> stat_protocol_errors_{0};
  std::atomic<uint64_t> stat_frames_{0};
  std::atomic<uint64_t> stat_deduped_{0};
  int listen_fd_ = -1;

  // The readiness loop (built at Start; owns the listening socket).
  std::unique_ptr<EventLoop> loop_;

  // In-flight kFinish waits; completed workers are reaped on the next
  // dispatch, the rest joined at Shutdown. `result_waiters_stop_`
  // (guarded by result_mu_) wakes stash waiters out of their rewait so
  // shutdown never sits out a result_rewait_ms window.
  std::mutex finish_mu_;
  std::vector<std::unique_ptr<FinishWorker>> finish_workers_;
  bool result_waiters_stop_ = false;

  std::mutex mu_;  // guards stopping_
  bool stopping_ = false;

  // Round-ingest gate: the batch round check (+ index gate for
  // kBatchIndexed) + Offer and the finish round check +
  // CloseRound-sentinel push are each atomic under this mutex, so a
  // batch validated for round k can never land behind round k's close
  // sentinel (its Offer would count it into round k+1), and a finisher
  // thread's failed-round reset (ResetAfterError plus the round-id
  // resync) never interleaves with an ingest. The kWatermark reply also
  // reads the (round, count) pair under this mutex — a reply must never
  // pair one round's id with another round's count.
  std::mutex ingest_mu_;
  // Atomic so lock-free readers (the kHello reply, error messages
  // composed outside the gate) stay race-free; every write is under
  // ingest_mu_.
  std::atomic<uint64_t> ingest_round_{0};
  // Batches accepted into the collector queue for the ingesting round —
  // the watermark a reconnecting sender resumes from, and the next
  // batch index the kBatchIndexed gate admits. Advances under
  // ingest_mu_ with each accepted batch, resets when the round closes,
  // and is seeded from the restored round state at recovery.
  std::atomic<uint64_t> ingest_offered_{0};
};

/// Client side of the endpoint. Synchronous; not thread-safe (one
/// in-flight protocol conversation per client). Every operation is
/// deadline-bounded per CollectorClientOptions; transient failures
/// (peer down, reset, deadline) come back as kUnavailable /
/// kDeadlineExceeded so the retry layer (service/retry.h) can tell
/// them from protocol violations.
class CollectorClient {
 public:
  /// Connects to `host:port` within options.connect_timeout_ms. `host`
  /// is a numeric IPv4 address or "localhost". A blackholed address
  /// fails with kDeadlineExceeded naming the endpoint; a refused one
  /// with kUnavailable.
  static Result<std::unique_ptr<CollectorClient>> Connect(
      const std::string& host, uint16_t port,
      const CollectorClientOptions& options = CollectorClientOptions());

  ~CollectorClient();

  CollectorClient(const CollectorClient&) = delete;
  CollectorClient& operator=(const CollectorClient&) = delete;

  /// Partition id stamped into every outgoing frame header (default 0,
  /// the single-node layout). The partition-routing client sets this to
  /// the endpoint's owned partition after the kHello handshake.
  void set_partition(uint16_t partition) { partition_ = partition; }
  uint16_t partition() const { return partition_; }

  /// Partition handshake: states `map` + `partition_id` to the endpoint
  /// and verifies the echo matches. Returns the round id the endpoint is
  /// currently ingesting (the natural round to start streaming into).
  /// On success the client stamps `partition_id` into later frames.
  Result<uint64_t> Hello(const PartitionMap& map, uint32_t partition_id);

  /// Ships one batch of packed ordinals for `round_id` as a plain
  /// (unindexed) kBatch frame — the endpoint accepts it
  /// unconditionally. Use this for unordered producers that never
  /// replay (multi-connection fan-in, the watermark as a flush barrier
  /// only); anything that may reconnect and replay must use the indexed
  /// overload so the endpoint can deduplicate.
  Status SendOrdinals(uint64_t round_id,
                      const ldp::ScalarFrequencyOracle& oracle,
                      const std::vector<uint64_t>& ordinals);

  /// Ships one batch as a kBatchIndexed frame carrying the producer
  /// batch index. The endpoint accepts it only when `batch_index`
  /// equals its consumed-batch count: a replayed duplicate is dropped
  /// silently (exactly-once under reconnect-and-replay recovery), a
  /// gap is a protocol violation. Requires the single-indexed-producer
  /// topology: one producer stream per endpoint per round, indices
  /// contiguous from 0 (or from the queried watermark after recovery).
  Status SendOrdinals(uint64_t round_id, uint64_t batch_index,
                      const ldp::ScalarFrequencyOracle& oracle,
                      const std::vector<uint64_t>& ordinals);

  /// Ships one batch of reports (PackOrdinal'd) for `round_id`.
  Status SendReports(uint64_t round_id,
                     const ldp::ScalarFrequencyOracle& oracle,
                     const std::vector<ldp::LdpReport>& reports);

  /// Sends the round-close frame without waiting for the result, so the
  /// caller can pipeline the next round's batches behind it.
  Status SendFinish(uint64_t round_id, uint64_t n, uint64_t n_fake,
                    Calibration calibration);

  /// Blocks until the server's kResult (or kError) for the oldest
  /// unanswered SendFinish arrives.
  Result<RemoteRoundResult> ReadRoundResult();

  /// SendFinish + ReadRoundResult.
  Result<RemoteRoundResult> FinishRound(uint64_t round_id, uint64_t n,
                                        uint64_t n_fake,
                                        Calibration calibration);

  /// Asks the server for its consumed-batch watermark: how many of the
  /// ingesting round's batches the endpoint has accepted so far, i.e.
  /// the batch index a resuming (crash recovery) or reconnecting
  /// (endpoint recovery) sender replays from — 0 means "send from the
  /// beginning". The count resets when a round closes and is seeded
  /// from the restored round state after a crash. `round_id_out`, when
  /// non-null, receives the round id the server is currently ingesting;
  /// the (round, watermark) pair is consistent — the server reads both
  /// under its ingest gate. As a replay floor the watermark assumes the
  /// single-indexed-producer topology (see the indexed SendOrdinals
  /// overload); replayed batches at stale indices are deduplicated
  /// server-side, so a floor that raced an in-flight batch is safe.
  /// Because the server answers queries in connection order, a reply
  /// also certifies that every batch this client sent earlier has been
  /// handed to the collector queue — the flush barrier
  /// multi-connection rounds use before a coordinator's kFinish.
  Result<uint64_t> QueryWatermark(uint64_t* round_id_out = nullptr);

  /// Asks the endpoint for its durable view of `round_id` (the kQuery
  /// frame): live/finalized/unknown status, watermark, durability flag,
  /// and — for finalized rounds — the full result with the parameters
  /// it closed with, served from the round store's history. A round
  /// older than the store's retention horizon answers kUnknown.
  Result<RoundQuery> QueryRound(uint64_t round_id);

  /// The endpoint this client dialed, as "host:port" (error messages).
  const std::string& peer() const { return peer_; }

 private:
  CollectorClient(int fd, uint16_t port, std::string peer,
                  const CollectorClientOptions& options)
      : fd_(fd), port_(port), peer_(std::move(peer)), options_(options) {}

  Status WriteFrame(Frame frame);
  Result<Frame> ReadFrame();

  int fd_ = -1;
  uint16_t port_ = 0;      ///< dialed TCP port (fault-injection match key)
  std::string peer_;       ///< "host:port" for error messages
  CollectorClientOptions options_;
  uint16_t partition_ = 0;
  FrameDecoder decoder_;
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_TRANSPORT_H_
