#include "service/transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ldp/wire.h"
#include "service/fault_injection.h"
#include "service/retry.h"
#include "util/hash.h"

namespace shuffledp {
namespace service {

namespace {

/// Errno taxonomy (service/retry.h): failures that say "the peer is
/// down / unreachable / mid-restart" are transient and map to
/// kUnavailable, so the retry layer reconnects through them. Anything
/// else is an Internal error — not retried, because it signals a bug or
/// a local-resource problem a reconnect will not fix.
bool TransientErrno(int err) {
  switch (err) {
    case ECONNREFUSED:
    case ECONNRESET:
    case ECONNABORTED:
    case EPIPE:
    case ETIMEDOUT:
    case EHOSTUNREACH:
    case ENETUNREACH:
    case ENETDOWN:
      return true;
    default:
      return false;
  }
}

Status MapSocketErrno(const char* what, int err, const std::string& peer) {
  std::string msg = std::string(what) + " " + peer + ": " +
                    std::strerror(err);
  return TransientErrno(err) ? Status::Unavailable(std::move(msg))
                             : Status::Internal(std::move(msg));
}

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Monotonic per-operation deadline; ms <= 0 means "no deadline".
class DeadlineTimer {
 public:
  static DeadlineTimer After(int ms) {
    DeadlineTimer t;
    if (ms > 0) {
      t.infinite_ = false;
      t.at_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(ms);
    }
    return t;
  }

  /// poll() timeout argument: -1 = wait forever, else clamped >= 0.
  int PollTimeoutMs() const {
    if (infinite_) return -1;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    at_ - std::chrono::steady_clock::now())
                    .count();
    if (left < 0) return 0;
    if (left > 3600 * 1000) return 3600 * 1000;
    return static_cast<int>(left);
  }

  bool Expired() const {
    return !infinite_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_;
};

/// Waits for `events` readiness on `fd` within the deadline.
/// kDeadlineExceeded names the operation and peer; POLLERR/POLLHUP are
/// left for the subsequent syscall to diagnose precisely.
Status PollWait(int fd, short events, const DeadlineTimer& deadline,
                const char* what, const std::string& peer) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, deadline.PollTimeoutMs());
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) + " " + peer +
                                      ": deadline exceeded");
    }
    if (errno == EINTR) continue;
    return MapSocketErrno(what, errno, peer);
  }
}

/// Applies an injected fault for one syscall site. Returns non-OK for
/// kFailErrno (mapped through the errno taxonomy); fills
/// `truncate_send` (when non-null) for kTruncateSend.
Status ApplyFault(FaultOp op, uint16_t port, const std::string& peer,
                  size_t* truncate_send = nullptr) {
  FaultAction action = EvaluateInstalledFault(op, port);
  switch (action.kind) {
    case FaultAction::Kind::kNone:
      break;
    case FaultAction::Kind::kFailErrno:
      return MapSocketErrno(FaultOpName(op), action.err,
                            peer + " [injected]");
    case FaultAction::Kind::kDelayMs:
      SleepForMs(action.delay_ms);
      break;
    case FaultAction::Kind::kTruncateSend:
      if (truncate_send != nullptr) {
        *truncate_send = static_cast<size_t>(action.max_bytes);
      }
      break;
  }
  return Status::OK();
}

/// Full-buffer send over a nonblocking socket with a deadline:
/// poll(POLLOUT) whenever the kernel buffer is full, fail with
/// kDeadlineExceeded when the peer stops draining. MSG_NOSIGNAL so a
/// dropped peer surfaces as EPIPE instead of killing the process.
Status SendAllDeadline(int fd, const uint8_t* data, size_t len,
                       const DeadlineTimer& deadline, uint16_t fault_port,
                       const std::string& peer) {
  size_t off = 0;
  while (off < len) {
    size_t truncate = 0;
    SHUFFLEDP_RETURN_NOT_OK(
        ApplyFault(FaultOp::kSend, fault_port, peer, &truncate));
    size_t want = len - off;
    if (truncate > 0) want = std::min(want, truncate);  // torn write
    ssize_t sent = ::send(fd, data + off, want, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent == 0) {
      // A stream send never legitimately returns 0 for a nonzero
      // length (and `want` is always >= 1 here: the loop guard keeps
      // len - off positive and injected truncations clamp to >= 1).
      // errno is unspecified in this case — report the fact itself
      // instead of mislabeling the failure with a stale errno.
      return Status::Internal("send " + peer +
                              ": returned 0 for a nonzero-length write");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SHUFFLEDP_RETURN_NOT_OK(PollWait(fd, POLLOUT, deadline, "send", peer));
      continue;
    }
    if (errno == EINTR) continue;
    return MapSocketErrno("send", errno, peer);
  }
  return Status::OK();
}

/// One deadline-bounded read. `*got` = 0 signals a clean EOF; transient
/// socket errors map to kUnavailable, an expired deadline to
/// kDeadlineExceeded.
Status RecvSomeDeadline(int fd, uint8_t* buf, size_t cap,
                        const DeadlineTimer& deadline, uint16_t fault_port,
                        const std::string& peer, size_t* got) {
  for (;;) {
    SHUFFLEDP_RETURN_NOT_OK(ApplyFault(FaultOp::kRecv, fault_port, peer));
    ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) {
      *got = static_cast<size_t>(n);
      return Status::OK();
    }
    if (n == 0) {
      *got = 0;
      return Status::OK();
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SHUFFLEDP_RETURN_NOT_OK(PollWait(fd, POLLIN, deadline, "recv", peer));
      continue;
    }
    if (errno == EINTR) continue;
    return MapSocketErrno("recv", errno, peer);
  }
}

/// Nonblocking connect with a deadline: EINPROGRESS + poll(POLLOUT) +
/// SO_ERROR, so a blackholed address fails with kDeadlineExceeded
/// naming the endpoint instead of hanging ::connect forever. The socket
/// stays nonblocking — every later operation is poll-driven too.
Status ConnectDeadline(int fd, const sockaddr_in& addr,
                       const DeadlineTimer& deadline,
                       const std::string& peer) {
  for (;;) {
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    if (rc == 0) return Status::OK();
    if (errno == EINTR) continue;
    if (errno != EINPROGRESS) return MapSocketErrno("connect", errno, peer);
    break;
  }
  SHUFFLEDP_RETURN_NOT_OK(PollWait(fd, POLLOUT, deadline, "connect", peer));
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) return MapSocketErrno("connect", err, peer);
  return Status::OK();
}

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kBatch) &&
         type <= static_cast<uint8_t>(FrameType::kQuery);
}

/// Cap-checked frame write shared by both endpoints: a payload beyond
/// kMaxFramePayload must fail fast here — encoding it would poison the
/// peer's decoder mid-stream (and a >4 GiB payload would silently
/// truncate in the u32 length field).
Status WriteFrameTo(int fd, const Frame& frame, const DeadlineTimer& deadline,
                    uint16_t fault_port, const std::string& peer) {
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte transport cap");
  }
  Bytes wire = EncodeFrame(frame);
  return SendAllDeadline(fd, wire.data(), wire.size(), deadline, fault_port,
                         peer);
}

uint64_t MonotonicMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Hashed timing wheel for the event loop's idle/write deadlines: O(1)
/// arm/cancel (intrusive entries, swap-remove), one coarse tick sweep
/// per loop iteration instead of a per-operation poll() timeout. Timers
/// here are eviction hygiene, not precision clocks — firing up to one
/// tick (8 ms) late is fine, firing early is never allowed (the sweep
/// re-checks each entry's absolute deadline, so an entry hashed into a
/// revisited slot a full revolution early just stays put).
class TimerWheel {
 public:
  struct Entry {
    uint64_t deadline_ms = 0;
    int slot = -1;  ///< -1 = unarmed
    size_t pos = 0;
    void* owner = nullptr;
    uint8_t kind = 0;

    bool armed() const { return slot >= 0; }
  };

  static constexpr uint64_t kTickMs = 8;
  static constexpr size_t kSlots = 512;

  TimerWheel() : slots_(kSlots) {}

  void Arm(Entry* e, uint64_t now_ms, uint64_t delay_ms) {
    Cancel(e);
    e->deadline_ms = now_ms + delay_ms;
    // Hash into the first tick boundary strictly past the deadline: the
    // sweep reaching that tick carries now >= tick*kTickMs > deadline,
    // so the due check below always passes. Hashing into deadline's own
    // tick instead would let a sweep arrive in the sub-tick window
    // before the deadline, pass the entry over, and not revisit the
    // slot for a full revolution (~4 s) — a busy loop crosses ticks
    // right at their boundary, making that near-certain.
    uint64_t tick = e->deadline_ms / kTickMs + 1;
    // Never hash into a slot the sweep already passed this revolution —
    // the entry would sleep a full lap.
    if (tick <= last_tick_) tick = last_tick_ + 1;
    const size_t slot = static_cast<size_t>(tick % kSlots);
    e->slot = static_cast<int>(slot);
    e->pos = slots_[slot].size();
    slots_[slot].push_back(e);
    ++armed_;
  }

  void Cancel(Entry* e) {
    if (e->slot < 0) return;
    std::vector<Entry*>& v = slots_[e->slot];
    v[e->pos] = v.back();
    v[e->pos]->pos = e->pos;
    v.pop_back();
    e->slot = -1;
    --armed_;
  }

  /// epoll_wait timeout: tick granularity while anything is armed, block
  /// forever otherwise (a coordinator fleet with deadlines disabled
  /// never wakes on timers at all).
  int TimeoutMs() const { return armed_ == 0 ? -1 : static_cast<int>(kTickMs); }

  /// Detaches every entry due at `now_ms` into `out`. Two-phase on
  /// purpose: the caller runs eviction callbacks only after the sweep,
  /// so a callback cancelling a sibling timer never mutates a slot this
  /// loop is iterating.
  void ExpireInto(uint64_t now_ms, std::vector<Entry*>* out) {
    const uint64_t tick = now_ms / kTickMs;
    if (tick <= last_tick_) return;
    if (armed_ == 0) {
      last_tick_ = tick;
      return;
    }
    uint64_t from = last_tick_ + 1;
    if (tick - from >= kSlots) from = tick - kSlots + 1;  // >= one lap: each slot once
    for (uint64_t t = from; t <= tick; ++t) {
      std::vector<Entry*>& v = slots_[t % kSlots];
      for (size_t i = 0; i < v.size();) {
        Entry* e = v[i];
        if (e->deadline_ms <= now_ms) {
          v[i] = v.back();
          v[i]->pos = i;
          v.pop_back();
          e->slot = -1;
          --armed_;
          out->push_back(e);
        } else {
          ++i;  // a later revolution's entry sharing the slot
        }
      }
    }
    last_tick_ = tick;
  }

 private:
  std::vector<std::vector<Entry*>> slots_;
  uint64_t last_tick_ = 0;
  size_t armed_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Framing codec
// ---------------------------------------------------------------------------

Bytes EncodeFrame(const Frame& frame) {
  ByteWriter w(kFrameHeaderBytes + frame.payload.size());
  w.PutBytes(kFrameMagic, sizeof(kFrameMagic));
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(frame.type));
  w.PutU16(frame.partition);
  w.PutU64(frame.round_id);
  w.PutU32(static_cast<uint32_t>(frame.payload.size()));
  // The CRC covers the 20 header bytes before it *and* the payload, so a
  // corrupted round id or length cannot slip through just because the
  // payload survived intact.
  uint32_t crc = Crc32(w.data().data(), kFrameHeaderBytes - 4);
  crc = Crc32(frame.payload.data(), frame.payload.size(), crc);
  w.PutU32(crc);
  w.PutBytes(frame.payload);
  return w.Release();
}

Status FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (!error_.ok()) return error_;
  buf_.insert(buf_.end(), data, data + len);
  // Parse at a read offset and compact the consumed prefix once per
  // Feed, so a read that completes many frames moves the torn tail once.
  size_t pos = 0;
  while (buf_.size() - pos >= kFrameHeaderBytes) {
    const uint8_t* head = buf_.data() + pos;
    if (std::memcmp(head, kFrameMagic, sizeof(kFrameMagic)) != 0) {
      error_ = Status::ProtocolViolation("frame magic mismatch");
      return error_;
    }
    ByteReader r(head + sizeof(kFrameMagic),
                 kFrameHeaderBytes - sizeof(kFrameMagic));
    uint8_t version = *r.GetU8();
    if (version != kWireVersion) {
      error_ = Status::ProtocolViolation(
          "unsupported wire version " + std::to_string(version) +
          " (this endpoint speaks " + std::to_string(kWireVersion) + ")");
      return error_;
    }
    uint8_t type = *r.GetU8();
    if (!ValidFrameType(type)) {
      error_ = Status::ProtocolViolation("unknown frame type " +
                                         std::to_string(type));
      return error_;
    }
    uint16_t partition = *r.GetU16();
    uint64_t round_id = *r.GetU64();
    uint32_t payload_len = *r.GetU32();
    uint32_t expected_crc = *r.GetU32();
    if (payload_len > kMaxFramePayload) {
      // Reject the length lie before buffering or allocating anything
      // near that size.
      error_ = Status::ProtocolViolation(
          "frame payload length " + std::to_string(payload_len) +
          " exceeds the " + std::to_string(kMaxFramePayload) + " cap");
      return error_;
    }
    if (buf_.size() - pos < kFrameHeaderBytes + payload_len) break;  // torn

    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.partition = partition;
    frame.round_id = round_id;
    frame.payload.assign(head + kFrameHeaderBytes,
                         head + kFrameHeaderBytes + payload_len);
    uint32_t crc = Crc32(head, kFrameHeaderBytes - 4);
    crc = Crc32(frame.payload.data(), frame.payload.size(), crc);
    if (crc != expected_crc) {
      error_ = Status::DataLoss("frame CRC mismatch");
      return error_;
    }
    pos += kFrameHeaderBytes + payload_len;
    ready_.push_back(std::move(frame));
  }
  buf_.erase(buf_.begin(), buf_.begin() + pos);
  return Status::OK();
}

bool FrameDecoder::Next(Frame* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// kResult payload codec
// ---------------------------------------------------------------------------

Bytes SerializeRoundResult(const RemoteRoundResult& result) {
  ByteWriter w(32 + result.supports.size() * 12);
  w.PutVarint(result.reports_decoded);
  w.PutVarint(result.reports_invalid);
  w.PutVarint(result.dummies_recognized);
  w.PutVarint(result.dummies_expected);
  w.PutU8(result.spot_check_passed ? 1 : 0);
  w.PutVarint(result.supports.size());
  for (uint64_t s : result.supports) w.PutVarint(s);
  // Estimates carry their own count: a Calibration::kNone round (raw
  // supports for the merge coordinator) ships zero of them.
  w.PutVarint(result.estimates.size());
  for (double e : result.estimates) w.PutDouble(e);
  return w.Release();
}

Result<RemoteRoundResult> ParseRoundResult(const Bytes& payload) {
  ByteReader r(payload);
  RemoteRoundResult result;
  SHUFFLEDP_ASSIGN_OR_RETURN(result.reports_decoded, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(result.reports_invalid, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(result.dummies_recognized, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(result.dummies_expected, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t spot, r.GetU8());
  result.spot_check_passed = spot != 0;
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
  // Every support costs >= 1 byte and every estimate 8, so d is bounded
  // by the payload size; a lying d cannot drive a huge reserve.
  if (d > r.Remaining()) {
    return Status::DataLoss("result domain size exceeds payload");
  }
  result.supports.reserve(d);
  for (uint64_t i = 0; i < d; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t s, r.GetVarint());
    result.supports.push_back(s);
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t e_count, r.GetVarint());
  if (e_count != 0 && e_count != d) {
    return Status::DataLoss("result estimate count is neither 0 nor d");
  }
  if (e_count > r.Remaining() / 8) {
    return Status::DataLoss("result estimate count exceeds payload");
  }
  result.estimates.reserve(e_count);
  for (uint64_t i = 0; i < e_count; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(double e, r.GetDouble());
    result.estimates.push_back(e);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("result payload has trailing bytes");
  }
  return result;
}

// ---------------------------------------------------------------------------
// CollectionServer
// ---------------------------------------------------------------------------

CollectionServer::CollectionServer(const ldp::ScalarFrequencyOracle& oracle,
                                   CollectionServerOptions options)
    : oracle_(oracle), options_(std::move(options)) {}

// The epoll readiness loop. Every connection lives on the loop thread
// for its whole life, so connection state (decoder, write queue,
// timers) is single-threaded by construction — cross-thread work
// arrives only through Post(), and the finisher threads refer to
// connections by id, never by pointer. Level-triggered epoll keeps the
// state machine simple: missing an edge is impossible, and interest is
// dropped (EPOLL_CTL_DEL) whenever the loop genuinely wants nothing
// from the socket (a paused connection with an empty write queue), so
// a hung-up peer cannot spin the loop on EPOLLHUP.
class CollectionServer::EventLoop {
 public:
  explicit EventLoop(CollectionServer* server)
      : server_(server),
        peer_("client@:" + std::to_string(server->port_)),
        accept_peer_("listener@:" + std::to_string(server->port_)) {}

  ~EventLoop() {
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll set and wakeup eventfd and registers the
  /// listening socket.
  Status Init(int listen_fd) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeupKey;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
      return Errno("epoll_ctl(eventfd)");
    }
    listen_fd_ = listen_fd;
    ev.events = EPOLLIN;
    ev.data.u64 = kListenKey;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd, &ev) != 0) {
      return Errno("epoll_ctl(listener)");
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void RequestStop() {
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      stop_requested_ = true;
    }
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Queues `task` onto the loop thread. False (task dropped) once the
  /// loop is stopping — the caller still owns whatever the task would
  /// have taken over.
  bool Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      if (stop_requested_) return false;
      tasks_.push_back(std::move(task));
    }
    Wake();
    return true;
  }

  /// Finisher-thread completion, run as a posted task: deliver the
  /// kFinish reply (or fail the connection) and resume reading.
  void CompleteFinish(uint64_t conn_id, const Status& fail, Frame reply) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->dead) return;
    c->reads_paused = false;
    if (!fail.ok()) {
      FailConn(c, fail);
      return;
    }
    Status sent = EnqueueReply(c, reply);
    if (c->dead) return;
    if (!sent.ok()) {
      FailConn(c, sent);
      return;
    }
    ArmIdle(c);
    UpdateInterest(c);
    // Frames that decoded behind the kFinish resume here, in order;
    // level-triggered epoll re-delivers whatever else the kernel
    // buffered once EPOLLIN interest is back.
    ProcessDecodedFrames(c);
  }

 private:
  /// Per-connection state, touched only by the loop thread.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    /// Encoded reply frames awaiting the socket; out_off bytes of the
    /// front one are already sent. out_bytes is the queued total the
    /// write_queue_max_bytes bound meters.
    std::deque<Bytes> out;
    size_t out_off = 0;
    size_t out_bytes = 0;
    uint32_t events = 0;  ///< epoll interest currently registered
    bool registered = false;
    bool reads_paused = false;  ///< a kFinish wait is in flight
    bool close_after_flush = false;
    bool dead = false;
    TimerWheel::Entry idle_timer;
    TimerWheel::Entry write_timer;
  };

  static constexpr uint64_t kWakeupKey = 0;
  static constexpr uint64_t kListenKey = 1;
  static constexpr uint64_t kFirstConnId = 2;
  static constexpr uint8_t kIdleKind = 0;
  static constexpr uint8_t kWriteKind = 1;
  /// Read-burst bound per readiness event: one connection with a deep
  /// kernel buffer cannot monopolize the loop while others wait.
  static constexpr size_t kReadBurst = 256 * 1024;

  void Wake() {
    uint64_t one = 1;
    ssize_t rc = ::write(event_fd_, &one, sizeof(one));
    (void)rc;  // EAGAIN means a wakeup is already pending — good enough
  }

  void Run() {
    std::vector<epoll_event> events(128);
    std::vector<TimerWheel::Entry*> expired;
    std::vector<std::function<void()>> tasks;
    for (;;) {
      int rc = ::epoll_wait(epoll_fd_, events.data(),
                            static_cast<int>(events.size()),
                            wheel_.TimeoutMs());
      if (rc < 0 && errno != EINTR) break;
      if (rc < 0) rc = 0;
      // Drain the wakeup eventfd *before* reading the task list and the
      // stop flag. A Wake() that lands after the drain stays pending for
      // the next epoll_wait; draining after the read could swallow a
      // RequestStop whose flag this iteration already missed, leaving
      // the loop asleep with Join() waiting on it forever.
      for (int i = 0; i < rc; ++i) {
        if (events[i].data.u64 != kWakeupKey) continue;
        uint64_t drained = 0;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
      }
      bool stop = false;
      tasks.clear();
      {
        std::lock_guard<std::mutex> lock(tasks_mu_);
        tasks.swap(tasks_);
        stop = stop_requested_;
      }
      for (auto& task : tasks) task();
      if (stop) break;
      for (int i = 0; i < rc; ++i) {
        const uint64_t key = events[i].data.u64;
        const uint32_t ev = events[i].events;
        if (key == kWakeupKey) continue;  // drained above
        if (key == kListenKey) {
          OnAccept();
          continue;
        }
        auto it = conns_.find(key);
        if (it == conns_.end()) continue;  // closed earlier this batch
        Conn* c = it->second.get();
        if (c->dead) continue;
        if (ev & EPOLLERR) {
          CloseConn(c);
          continue;
        }
        if (ev & EPOLLOUT) {
          FlushWrites(c);
          if (c->dead) continue;
        }
        if (ev & (EPOLLIN | EPOLLHUP)) OnReadable(c);
      }
      expired.clear();
      wheel_.ExpireInto(MonotonicMs(), &expired);
      for (TimerWheel::Entry* e : expired) {
        Conn* c = static_cast<Conn*>(e->owner);
        if (c->dead) continue;
        std::atomic<uint64_t>& evicted = e->kind == kIdleKind
                                             ? server_->stat_evicted_idle_
                                             : server_->stat_evicted_slow_;
        CloseConn(c);
        // Counted after the close it causes; see stats().
        evicted.fetch_add(1, std::memory_order_release);
      }
      ReapDead();
    }
    // Stop: every surviving connection closes here, counted like any
    // other close.
    for (auto& entry : conns_) {
      if (!entry.second->dead) CloseConn(entry.second.get());
    }
    conns_.clear();
    dead_ids_.clear();
  }

  void OnAccept() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        // The peer aborting between SYN and accept is its problem, not
        // ours; anything else (EMFILE under fd pressure) backs off a
        // beat instead of spinning on a still-readable listener.
        if (errno == ECONNABORTED || errno == EPROTO) continue;
        SleepForMs(10);
        return;
      }
      // Scripted accept faults: a kFailErrno rule models "the endpoint
      // is up but sheds this connection", a delay a wedged acceptor.
      Status admitted =
          ApplyFault(FaultOp::kAccept, server_->port_, accept_peer_);
      if (!admitted.ok()) {
        ::close(fd);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      server_->stat_accepted_.fetch_add(1, std::memory_order_relaxed);
      RegisterConn(fd);
    }
  }

  void RegisterConn(int fd) {
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->idle_timer.owner = conn.get();
    conn->idle_timer.kind = kIdleKind;
    conn->write_timer.owner = conn.get();
    conn->write_timer.kind = kWriteKind;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server_->stat_closed_.fetch_add(1, std::memory_order_release);
      return;
    }
    conn->registered = true;
    conn->events = EPOLLIN;
    Conn* c = conn.get();
    conns_.emplace(conn->id, std::move(conn));
    ArmIdle(c);
  }

  /// Marks the connection dead, cancels its timers, deregisters and
  /// closes the socket, and counts the close. The Conn object survives
  /// until ReapDead() at the end of the loop iteration so callers up
  /// the stack can still test c->dead.
  void CloseConn(Conn* c) {
    if (c->dead) return;
    c->dead = true;
    wheel_.Cancel(&c->idle_timer);
    wheel_.Cancel(&c->write_timer);
    if (c->registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
      c->registered = false;
    }
    ::close(c->fd);
    c->fd = -1;
    server_->stat_closed_.fetch_add(1, std::memory_order_release);
    dead_ids_.push_back(c->id);
  }

  void ReapDead() {
    for (uint64_t id : dead_ids_) conns_.erase(id);
    dead_ids_.clear();
  }

  void ArmIdle(Conn* c) {
    if (server_->options_.idle_timeout_ms <= 0) return;
    wheel_.Arm(&c->idle_timer, MonotonicMs(),
               static_cast<uint64_t>(server_->options_.idle_timeout_ms));
  }

  /// Recomputes epoll interest from the connection's state. Interest of
  /// nothing deregisters the fd entirely (EPOLLHUP/EPOLLERR are
  /// unmaskable, and a paused connection must not spin on them).
  void UpdateInterest(Conn* c) {
    if (c->dead) return;
    uint32_t want = 0;
    if (!c->reads_paused && !c->close_after_flush) want |= EPOLLIN;
    if (!c->out.empty()) want |= EPOLLOUT;
    if (want == 0) {
      if (c->registered) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
        c->registered = false;
      }
      return;
    }
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = c->id;
    if (!c->registered) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->fd, &ev);
      c->registered = true;
      c->events = want;
      return;
    }
    if (want != c->events) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      c->events = want;
    }
  }

  void OnReadable(Conn* c) {
    if (c->dead || c->reads_paused || c->close_after_flush) return;
    uint8_t buf[65536];
    size_t budget = kReadBurst;
    while (budget > 0) {
      Status fault = ApplyFault(FaultOp::kRecv, server_->port_, peer_);
      if (!fault.ok()) {
        // An injected recv failure models a reset: same exit as the
        // real syscall failing.
        CloseConn(c);
        return;
      }
      const size_t want = std::min(sizeof(buf), budget);
      ssize_t got = ::recv(c->fd, buf, want, 0);
      if (got == 0) {
        CloseConn(c);  // peer closed
        return;
      }
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        CloseConn(c);  // reset / injected-equivalent failure
        return;
      }
      budget -= static_cast<size_t>(got);
      Status fed = c->decoder.Feed(buf, static_cast<size_t>(got));
      if (!fed.ok()) {
        // Malformed bytes poison the decoder; frames that decoded
        // earlier in this same chunk are dropped with the connection —
        // exactly the per-thread reader's semantics.
        FailConn(c, fed);
        return;
      }
      ProcessDecodedFrames(c);
      if (c->dead || c->reads_paused || c->close_after_flush) return;
      if (static_cast<size_t>(got) < want) return;  // socket drained
    }
  }

  void ProcessDecodedFrames(Conn* c) {
    Status status = Status::OK();
    bool handled = false;
    Frame frame;
    while (status.ok() && !c->dead && !c->reads_paused &&
           !c->close_after_flush && c->decoder.Next(&frame)) {
      status = HandleFrameEvent(c, std::move(frame));
      if (c->dead) return;
      if (status.ok()) {
        server_->stat_frames_.fetch_add(1, std::memory_order_relaxed);
        handled = true;
      }
      frame = Frame();
    }
    if (!status.ok()) {
      FailConn(c, status);
      return;
    }
    // The idle clock counts time between *completed* frames: any frame
    // handled here pushes the eviction deadline out, a byte trickle
    // that never completes one does not.
    if (handled && !c->reads_paused) ArmIdle(c);
  }

  /// Protocol-failure exit: count it, best-effort kError frame, then
  /// close once the error flushes — the old reader's write-then-drop,
  /// minus the blocking write (the write deadline bounds the flush).
  void FailConn(Conn* c, const Status& status) {
    server_->stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(status.code()));
    w.PutLengthPrefixed(status.message());
    Frame error;
    error.type = FrameType::kError;
    error.partition = static_cast<uint16_t>(server_->options_.partition_id);
    error.payload = w.Release();
    c->close_after_flush = true;
    wheel_.Cancel(&c->idle_timer);
    EnqueueReply(c, error);  // flush-complete closes via close_after_flush
    if (c->dead) return;
    if (c->out.empty()) {
      CloseConn(c);
      return;
    }
    UpdateInterest(c);
  }

  /// Queues one reply frame and flushes as much as the socket takes
  /// right now. kInvalidArgument for an over-cap payload (the caller
  /// surfaces it as a kError); a backlog past write_queue_max_bytes
  /// evicts the connection instead (drop-slowest — check c->dead).
  Status EnqueueReply(Conn* c, const Frame& frame) {
    if (frame.payload.size() > kMaxFramePayload) {
      return Status::InvalidArgument(
          "frame payload of " + std::to_string(frame.payload.size()) +
          " bytes exceeds the " + std::to_string(kMaxFramePayload) +
          "-byte transport cap");
    }
    Bytes wire = EncodeFrame(frame);
    if (!c->out.empty() &&
        c->out_bytes + wire.size() > server_->options_.write_queue_max_bytes) {
      // Drop-slowest: the peer requests replies faster than it drains
      // them. (A single reply into an empty queue is always admitted —
      // the bound meters backlog, not frame size.)
      CloseConn(c);
      // Counted after the close it causes; see stats().
      server_->stat_evicted_overflow_.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
    c->out_bytes += wire.size();
    c->out.push_back(std::move(wire));
    FlushWrites(c);
    return Status::OK();
  }

  void FlushWrites(Conn* c) {
    bool progress = false;
    while (!c->out.empty()) {
      size_t truncate = 0;
      Status fault =
          ApplyFault(FaultOp::kSend, server_->port_, peer_, &truncate);
      if (!fault.ok()) {
        CloseConn(c);  // injected send failure: the peer is "gone"
        return;
      }
      const Bytes& front = c->out.front();
      size_t want = front.size() - c->out_off;
      if (truncate > 0) want = std::min(want, truncate);  // torn write
      ssize_t sent =
          ::send(c->fd, front.data() + c->out_off, want, MSG_NOSIGNAL);
      if (sent > 0) {
        progress = true;
        c->out_off += static_cast<size_t>(sent);
        c->out_bytes -= static_cast<size_t>(sent);
        if (c->out_off == front.size()) {
          c->out.pop_front();
          c->out_off = 0;
        }
        continue;
      }
      if (sent == 0) {
        // See SendAllDeadline: a 0 return for a nonzero-length write is
        // never valid.
        CloseConn(c);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    if (c->out.empty()) {
      wheel_.Cancel(&c->write_timer);
      if (c->close_after_flush) {
        CloseConn(c);
        return;
      }
    } else if (server_->options_.write_timeout_ms > 0 &&
               (progress || !c->write_timer.armed())) {
      // The write deadline measures *lack of progress*: each drained
      // byte re-arms it, a peer that stops draining runs it out.
      wheel_.Arm(&c->write_timer, MonotonicMs(),
                 static_cast<uint64_t>(server_->options_.write_timeout_ms));
    }
    UpdateInterest(c);
  }

  Status HandleFrameEvent(Conn* c, Frame frame);

  CollectionServer* const server_;
  const std::string peer_;
  const std::string accept_peer_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int listen_fd_ = -1;
  std::thread thread_;
  TimerWheel wheel_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> dead_ids_;
  uint64_t next_conn_id_ = kFirstConnId;
  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
  bool stop_requested_ = false;
};

Result<std::unique_ptr<CollectionServer>> CollectionServer::Start(
    const ldp::ScalarFrequencyOracle& oracle,
    CollectionServerOptions options) {
  std::unique_ptr<CollectionServer> server(
      new CollectionServer(oracle, std::move(options)));
  if (server->options_.partition_id >=
      server->options_.partition_map.partitions()) {
    return Status::InvalidArgument(
        "endpoint partition id " +
        std::to_string(server->options_.partition_id) +
        " out of range for map " + server->options_.partition_map.ToString());
  }
  // The streaming worker owns exactly the slice this endpoint was
  // assigned; a single-node default map resolves to the full domain.
  server->options_.streaming.partition =
      server->options_.partition_map.SliceOf(server->options_.partition_id);

  // Open the durable round store *before* constructing the worker and
  // share one handle: a WAL must have exactly one writer, and the
  // server needs the store itself for recovery and kQuery. A store that
  // refuses to open (corrupt WAL, wrong slice identity) fails Start —
  // refusing traffic beats silently dropping durability.
  StreamingOptions& streaming = server->options_.streaming;
  if (streaming.store == nullptr) {
    SHUFFLEDP_ASSIGN_OR_RETURN(
        streaming.store,
        OpenRoundStore(streaming.round_store,
                       streaming.partition.Resolved(oracle.domain_size())));
  }
  server->store_ = streaming.store;
  server->collector_ = std::make_unique<PartitionWorker>(oracle, streaming);

  // Crash recovery before the first byte of traffic: every stored round
  // loads through the store — the newest finalized round replays into
  // the result stash (so a kFinish re-request for it is answered
  // instead of rejected) and a live mid-round state restores into the
  // collector so the watermark answer is exact.
  if (server->options_.recover && server->store_ != nullptr) {
    SHUFFLEDP_ASSIGN_OR_RETURN(std::vector<StoredRound> rounds,
                               server->store_->LoadAll());
    const StoredRound* live = nullptr;
    const StoredRound* newest_finalized = nullptr;
    for (const StoredRound& round : rounds) {
      if (round.finalized) {
        if (newest_finalized == nullptr ||
            round.round_id() > newest_finalized->round_id()) {
          newest_finalized = &round;
        }
      } else if (live == nullptr || round.round_id() > live->round_id()) {
        live = &round;  // the consumer serializes rounds, so at most one
      }
    }
    if (newest_finalized != nullptr) {
      // Replay through a throwaway worker when a live mid-round state
      // also exists (the live collector must restore *that* round);
      // otherwise through the live collector so its round id advances
      // past the finalized round. The throwaway shares the already-open
      // store handle via streaming.store, so no second WAL opens.
      const RoundJournal& journal = newest_finalized->journal;
      Result<RoundResult> replay =
          live != nullptr
              ? PartitionWorker(oracle, server->options_.streaming)
                    .RecoverFinalizedRound(journal)
              : server->collector_->RecoverFinalizedRound(journal);
      SHUFFLEDP_RETURN_NOT_OK(replay.status());
      RemoteRoundResult replayed;
      replayed.supports = std::move(replay->supports);
      replayed.estimates = std::move(replay->estimates);
      replayed.reports_decoded = replay->reports_decoded;
      replayed.reports_invalid = replay->reports_invalid;
      replayed.dummies_recognized = replay->dummies_recognized;
      replayed.dummies_expected = replay->dummies_expected;
      replayed.spot_check_passed = replay->spot_check_passed;
      server->StashRoundResult(journal.round_id, journal.n, journal.n_fake,
                               journal.calibration, std::move(replayed),
                               /*durability_degraded=*/false);
    }
    if (live != nullptr) {
      SHUFFLEDP_ASSIGN_OR_RETURN(
          server->recovered_watermark_,
          server->collector_->RecoverRound(live->state));
      server->recovered_round_ = live->state.round_id;
      // Resuming clients replay from the restored consumed-batch count.
      server->ingest_offered_.store(server->recovered_watermark_,
                                    std::memory_order_release);
    }
  }
  server->ingest_round_ = server->collector_->round_id();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server->options_.port);
  // Port 0 cannot collide (the kernel assigns); a fixed port can lose a
  // close/rebind race against a parallel test that just released it, so
  // retry briefly and, if the port is genuinely taken, say EADDRINUSE in
  // a distinct status instead of a generic bind failure.
  int bind_rc = -1;
  for (int attempt = 0; attempt < 5; ++attempt) {
    bind_rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (bind_rc == 0 || errno != EADDRINUSE || server->options_.port == 0) {
      break;
    }
    struct timespec backoff = {0, 20 * 1000 * 1000};  // 20 ms
    ::nanosleep(&backoff, nullptr);
  }
  if (bind_rc != 0) {
    Status st = errno == EADDRINUSE
                    ? Status::AlreadyExists(
                          "bind: port " +
                          std::to_string(server->options_.port) +
                          " is EADDRINUSE (pass port 0 to let the kernel "
                          "pick a free one)")
                    : Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, server->options_.listen_backlog) != 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    Status st = Errno("getsockname");
    ::close(fd);
    return st;
  }
  // The chosen port is published before the event loop exists: a caller
  // can read port() and connect the moment Start() returns (the kernel
  // queues the connection against the listening socket even if the
  // loop has not reached accept() yet).
  server->port_ = ntohs(bound.sin_port);
  // The accept path is epoll-driven like everything else.
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  server->listen_fd_ = fd;
  server->loop_ = std::make_unique<EventLoop>(server.get());
  // An Init failure destroys the half-built server (its destructor
  // tolerates a never-started loop) and closes the listener with it.
  SHUFFLEDP_RETURN_NOT_OK(server->loop_->Init(fd));
  server->loop_->StartThread();
  return server;
}

CollectionServer::~CollectionServer() { Shutdown(); }

uint64_t CollectionServer::round_id() const {
  return collector_->round_id();
}

CollectionServerStats CollectionServer::stats() const {
  CollectionServerStats s;
  // The loop counts an accept before its close and a close before the
  // eviction that caused it, so reading in the reverse order (acquire)
  // keeps every snapshot consistent: evictions <= closed <= accepted.
  s.evicted_idle = stat_evicted_idle_.load(std::memory_order_acquire);
  s.evicted_slow = stat_evicted_slow_.load(std::memory_order_acquire);
  s.evicted_overflow = stat_evicted_overflow_.load(std::memory_order_acquire);
  s.connections_closed = stat_closed_.load(std::memory_order_acquire);
  s.connections_accepted = stat_accepted_.load(std::memory_order_relaxed);
  s.protocol_errors = stat_protocol_errors_.load(std::memory_order_relaxed);
  s.frames_handled = stat_frames_.load(std::memory_order_relaxed);
  s.batches_deduped = stat_deduped_.load(std::memory_order_relaxed);
  return s;
}

void CollectionServer::StashRoundResult(uint64_t round_id, uint64_t n,
                                        uint64_t n_fake, uint8_t calibration,
                                        RemoteRoundResult result,
                                        bool durability_degraded) {
  {
    std::lock_guard<std::mutex> lock(result_mu_);
    have_last_result_ = true;
    last_round_ = round_id;
    last_n_ = n;
    last_n_fake_ = n_fake;
    last_calibration_ = calibration;
    last_durability_degraded_ = durability_degraded;
    last_result_ = std::move(result);
  }
  result_cv_.notify_all();
}

void CollectionServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Wake any re-finish stash waiter out of its rewait window first: a
  // finisher blocked there would otherwise hold shutdown for up to
  // result_rewait_ms.
  {
    std::lock_guard<std::mutex> lock(result_mu_);
    result_waiters_stop_ = true;
  }
  result_cv_.notify_all();
  if (loop_) {
    loop_->RequestStop();
    loop_->Join();
  }
  // Finishers post their completions to the (now stopped) loop, where
  // they are dropped; the connections they would answer are closed.
  std::vector<std::unique_ptr<FinishWorker>> workers;
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
    workers.swap(finish_workers_);
  }
  for (auto& worker : workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void CollectionServer::ReapFinishWorkersLocked() {
  // A worker flips `done` as its last action, so joining a done worker
  // cannot block on finish work.
  for (auto it = finish_workers_.begin(); it != finish_workers_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = finish_workers_.erase(it);
    } else {
      ++it;
    }
  }
}

void CollectionServer::DispatchFinish(uint64_t conn_id, bool closing,
                                      std::future<Result<RoundResult>> future,
                                      uint64_t round_id, uint64_t n,
                                      uint64_t n_fake, uint8_t calibration,
                                      uint16_t reply_partition) {
  std::lock_guard<std::mutex> lock(finish_mu_);
  ReapFinishWorkersLocked();  // long-lived endpoints shed dead threads
  finish_workers_.push_back(std::make_unique<FinishWorker>());
  FinishWorker* worker = finish_workers_.back().get();
  worker->thread = std::thread(
      [this, conn_id, closing, round_id, n, n_fake, calibration,
       reply_partition, worker, fut = std::move(future)]() mutable {
        RunFinish(conn_id, closing, std::move(fut), round_id, n, n_fake,
                  calibration, reply_partition);
        worker->done.store(true, std::memory_order_release);
      });
}

void CollectionServer::RunFinish(uint64_t conn_id, bool closing,
                                 std::future<Result<RoundResult>> future,
                                 uint64_t round_id, uint64_t n,
                                 uint64_t n_fake, uint8_t calibration,
                                 uint16_t reply_partition) {
  Status fail = Status::OK();
  Frame reply;
  reply.type = FrameType::kResult;
  reply.partition = reply_partition;
  reply.round_id = round_id;
  if (closing) {
    // The drain this waits on is the whole reason kFinish leaves the
    // loop thread: it can take seconds, and the loop must keep serving
    // every other connection meanwhile.
    Result<RoundResult> round = future.get();
    if (!round.ok()) {
      // Reset under the ingest gate so no concurrent batch can slide
      // into the half-reset pipeline between Reopen and the round-id
      // resync.
      std::lock_guard<std::mutex> lock(ingest_mu_);
      collector_->ResetAfterError();
      ingest_round_ = collector_->round_id();
      ingest_offered_.store(0, std::memory_order_release);
      fail = round.status();
    } else {
      RemoteRoundResult remote;
      remote.supports = std::move(round->supports);
      remote.estimates = std::move(round->estimates);
      remote.reports_decoded = round->reports_decoded;
      remote.reports_invalid = round->reports_invalid;
      remote.dummies_recognized = round->dummies_recognized;
      remote.dummies_expected = round->dummies_expected;
      remote.spot_check_passed = round->spot_check_passed;
      reply.payload = SerializeRoundResult(remote);
      // Stash *before* the reply travels: if the connection died while
      // the round drained, the write fails but a reconnecting
      // coordinator can still re-request the result (the close-to-read
      // window, live-server edition of the journal replay).
      StashRoundResult(round_id, n, n_fake, calibration, std::move(remote),
                       round->durability_degraded);
    }
  } else {
    // Not the live round. A kFinish for the *last closed* round means
    // the requester never read the original kResult — a coordinator
    // whose connection died in the close-to-read window
    // (reconnect-and-refinish), or one resuming after an endpoint
    // crash (journal replay stocked the stash at Start). Serve the
    // stashed result; wait briefly first, because the original close
    // may still be draining on a finisher thread. The request must
    // restate the parameters the round actually closed with —
    // re-serving a result for different (n, n_fake, calibration) would
    // hand the caller numbers it never asked for.
    std::unique_lock<std::mutex> lock(result_mu_);
    auto stashed = [&] {
      return have_last_result_ && last_round_ == round_id;
    };
    bool ready = stashed();
    if (!ready &&
        round_id + 1 == ingest_round_.load(std::memory_order_acquire)) {
      // Only the round *just* closed can still be draining; any other
      // id is garbage and rejects immediately.
      result_cv_.wait_for(
          lock,
          std::chrono::milliseconds(std::max(options_.result_rewait_ms, 0)),
          [&] { return stashed() || result_waiters_stop_; });
      ready = stashed();
    }
    if (!ready) {
      fail = Status::ProtocolViolation(
          "finish for round " + std::to_string(round_id) +
          " but the endpoint is ingesting round " +
          std::to_string(ingest_round_.load(std::memory_order_acquire)));
    } else if (n != last_n_ || n_fake != last_n_fake_ ||
               calibration != last_calibration_) {
      fail = Status::ProtocolViolation(
          "finish for closed round " + std::to_string(round_id) +
          " does not match the parameters it closed with (n=" +
          std::to_string(last_n_) + ", n_fake=" +
          std::to_string(last_n_fake_) + ", calibration=" +
          std::to_string(last_calibration_) + ")");
    } else {
      reply.payload = SerializeRoundResult(last_result_);
    }
  }
  // Deliver on the loop; dropped (with the connection already closed)
  // when the loop has stopped.
  EventLoop* loop = loop_.get();
  loop->Post([loop, conn_id, fail, reply = std::move(reply)]() mutable {
    loop->CompleteFinish(conn_id, fail, std::move(reply));
  });
}

Status CollectionServer::EventLoop::HandleFrameEvent(Conn* c, Frame frame) {
  // Misrouted traffic fails loudly: every data/control frame must name
  // the partition this endpoint owns (kWatermark and kQuery are pure
  // queries and may come from anyone, e.g. a prober that has not
  // handshaken).
  if (frame.type != FrameType::kWatermark &&
      frame.type != FrameType::kQuery &&
      frame.partition != server_->options_.partition_id) {
    return Status::ProtocolViolation(
        "frame targets partition " + std::to_string(frame.partition) +
        " but this endpoint owns partition " +
        std::to_string(server_->options_.partition_id));
  }
  switch (frame.type) {
    case FrameType::kHello: {
      ByteReader r(frame.payload);
      SHUFFLEDP_ASSIGN_OR_RETURN(PartitionMap peer_map,
                                 ParsePartitionMap(&r));
      SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t peer_partition, r.GetVarint());
      if (!r.AtEnd()) {
        return Status::ProtocolViolation("malformed hello payload");
      }
      if (peer_map != server_->options_.partition_map) {
        return Status::ProtocolViolation(
            "partition map mismatch: client speaks " + peer_map.ToString() +
            ", endpoint is " + server_->options_.partition_map.ToString());
      }
      if (peer_partition != server_->options_.partition_id) {
        return Status::ProtocolViolation(
            "client expects this endpoint to own partition " +
            std::to_string(peer_partition) + " but it owns " +
            std::to_string(server_->options_.partition_id));
      }
      Frame reply;
      reply.type = FrameType::kHello;
      reply.partition = static_cast<uint16_t>(server_->options_.partition_id);
      reply.round_id = server_->ingest_round_.load(std::memory_order_acquire);
      ByteWriter w;
      w.PutBytes(SerializePartitionMap(server_->options_.partition_map));
      w.PutVarint(server_->options_.partition_id);
      reply.payload = w.Release();
      return EnqueueReply(c, reply);
    }
    case FrameType::kBatch:
    case FrameType::kBatchIndexed: {
      const bool indexed = frame.type == FrameType::kBatchIndexed;
      uint64_t batch_index = 0;
      const uint8_t* ordinal_bytes = frame.payload.data();
      size_t ordinal_len = frame.payload.size();
      if (indexed) {
        ByteReader prefix(frame.payload);
        SHUFFLEDP_ASSIGN_OR_RETURN(batch_index, prefix.GetVarint());
        ordinal_bytes = frame.payload.data() +
                        (frame.payload.size() - prefix.Remaining());
        ordinal_len = prefix.Remaining();
      }
      // Under value partitioning the frame header alone cannot prove
      // routing: every contained ordinal must belong to the owned
      // slice, or another partition's counts are silently wrong.
      SHUFFLEDP_ASSIGN_OR_RETURN(
          std::vector<uint64_t> ordinals,
          ldp::ParseOrdinals(server_->oracle_, ordinal_bytes, ordinal_len));
      SHUFFLEDP_RETURN_NOT_OK(server_->options_.partition_map.AdmitOrdinals(
          server_->options_.partition_id, ordinals));
      ReportBatch batch = MakeOrdinalBatch(std::move(ordinals));
      // Round check, index gate, and Offer are one atomic step under
      // the ingest gate: checking first and offering later would let
      // another connection's kFinish slip its close sentinel in between
      // (silently counting this batch into the next round), or let two
      // connections racing the same batch index both pass the gate.
      // Offer may block the loop under collector backpressure — that is
      // the flush-barrier/backpressure contract, shared by every
      // connection on this loop by design (the queue bounds memory, the
      // kernel socket buffers absorb the stall).
      std::lock_guard<std::mutex> lock(server_->ingest_mu_);
      if (frame.round_id != server_->ingest_round_) {
        return Status::ProtocolViolation(
            "batch for round " + std::to_string(frame.round_id) +
            " but the endpoint is ingesting round " +
            std::to_string(server_->ingest_round_));
      }
      if (indexed) {
        // Exactly-once gate for the single indexed producer stream:
        // the consumed-batch count is the next index the round admits.
        // A stale index is a duplicate — a replaced connection's
        // kernel-buffered stragglers draining concurrently with the
        // recovery replay on the fresh connection — and is dropped
        // silently, because both copies carry identical bytes and one
        // was already counted. A future index means a batch was lost
        // in between: fail loudly, a replay cannot fill the hole.
        const uint64_t expected =
            server_->ingest_offered_.load(std::memory_order_relaxed);
        if (batch_index < expected) {
          server_->stat_deduped_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
        if (batch_index > expected) {
          return Status::ProtocolViolation(
              "indexed batch " + std::to_string(batch_index) +
              " for round " + std::to_string(frame.round_id) +
              " but the endpoint expects batch " +
              std::to_string(expected) + " next (a batch was lost)");
        }
      }
      SHUFFLEDP_RETURN_NOT_OK(server_->collector_->Offer(std::move(batch)));
      // Advance the watermark only after the queue accepted the batch:
      // a reconnecting sender replays everything at or above the
      // answered value, so over-advancing would lose batches while
      // under-advancing merely replays (which the index gate absorbs).
      server_->ingest_offered_.fetch_add(1, std::memory_order_release);
      return Status::OK();
    }
    case FrameType::kFinish: {
      ByteReader r(frame.payload);
      SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
      SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n_fake, r.GetVarint());
      SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t cal, r.GetU8());
      if (!r.AtEnd() || cal > static_cast<uint8_t>(Calibration::kNone)) {
        return Status::ProtocolViolation("malformed finish payload");
      }
      std::future<Result<RoundResult>> future;
      bool closing = false;
      {
        std::lock_guard<std::mutex> lock(server_->ingest_mu_);
        if (frame.round_id == server_->ingest_round_) {
          future = server_->collector_->CloseRound(
              n, n_fake, static_cast<Calibration>(cal));
          ++server_->ingest_round_;
          server_->ingest_offered_.store(0, std::memory_order_release);
          closing = true;
        }
      }
      // The wait — for the drain (live close) or for the re-finish
      // stash — leaves the loop thread: a finisher thread blocks on it
      // and posts the reply back. This connection pauses until then
      // (nothing after the kFinish is processed or even read — exactly
      // the old blocked-reader timing, so a pipelined client's next
      // round of batches sits in the kernel buffer), while every other
      // connection keeps streaming through the loop. The idle timer
      // stops with the pause: the server owes the reply, the peer is
      // not idle.
      c->reads_paused = true;
      wheel_.Cancel(&c->idle_timer);
      UpdateInterest(c);
      server_->DispatchFinish(c->id, closing, std::move(future),
                              frame.round_id, n, n_fake, cal,
                              frame.partition);
      // A domain so large its result frame blows the cap surfaces as a
      // clean kError (via the connection error path), not a poisoned
      // client decoder mid-frame.
      return Status::OK();
    }
    case FrameType::kWatermark: {
      if (!frame.payload.empty()) {
        return Status::ProtocolViolation("watermark query carries a payload");
      }
      Frame reply;
      reply.type = FrameType::kWatermark;
      reply.partition = static_cast<uint16_t>(server_->options_.partition_id);
      uint64_t reply_round = 0;
      uint64_t offered = 0;
      {
        // Both values under the ingest gate: two bare atomic loads
        // could straddle a concurrent kFinish and pair one round's id
        // with another round's count — and a recovery acting on that
        // torn pair replays into the wrong round, which the round-id
        // check rejects *fatally* (kProtocolViolation is not
        // retryable). The wait this can add behind an in-flight Offer
        // is the flush barrier the watermark already promises; queries
        // are rare, so contention is irrelevant.
        std::lock_guard<std::mutex> lock(server_->ingest_mu_);
        reply_round = server_->ingest_round_.load(std::memory_order_relaxed);
        offered = server_->ingest_offered_.load(std::memory_order_relaxed);
      }
      reply.round_id = reply_round;
      ByteWriter w;
      w.PutVarint(offered);
      reply.payload = w.Release();
      return EnqueueReply(c, reply);
    }
    case FrameType::kQuery: {
      if (!frame.payload.empty()) {
        return Status::ProtocolViolation("round query carries a payload");
      }
      Frame reply;
      reply.type = FrameType::kQuery;
      reply.partition = static_cast<uint16_t>(server_->options_.partition_id);
      reply.round_id = frame.round_id;
      RoundStatus status = RoundStatus::kUnknown;
      bool degraded = false;
      uint64_t watermark = 0;
      bool answered = false;
      {
        // The live round answers from the ingest gate (same torn-pair
        // reasoning as kWatermark); anything else answers from the
        // durable store, so the reply reflects exactly what a crash
        // would preserve.
        std::lock_guard<std::mutex> lock(server_->ingest_mu_);
        if (frame.round_id ==
            server_->ingest_round_.load(std::memory_order_relaxed)) {
          status = RoundStatus::kActive;
          watermark = server_->ingest_offered_.load(std::memory_order_relaxed);
          degraded = server_->collector_->durability_degraded();
          answered = true;
        }
      }
      ByteWriter w;
      if (!answered && server_->store_ != nullptr) {
        SHUFFLEDP_ASSIGN_OR_RETURN(RoundLookup lookup,
                                   server_->store_->Query(frame.round_id));
        if (lookup.status != RoundStatus::kUnknown) {
          status = lookup.status;
          watermark = lookup.watermark;
          answered = true;
          if (status == RoundStatus::kFinalized) {
            // The journal persists supports only; estimates and the
            // spot-check verdict re-derive through the same pure
            // function live finalization uses, so the reply is bitwise
            // the result the round originally produced.
            const RoundJournal& journal = lookup.journal;
            RoundResult replay = FinalizeRoundResult(
                server_->oracle_, journal.supports, journal.n, journal.n_fake,
                static_cast<Calibration>(journal.calibration),
                journal.reports_decoded, journal.reports_invalid,
                journal.dummies_recognized, journal.dummies_expected);
            RemoteRoundResult remote;
            remote.supports = std::move(replay.supports);
            remote.estimates = std::move(replay.estimates);
            remote.reports_decoded = replay.reports_decoded;
            remote.reports_invalid = replay.reports_invalid;
            remote.dummies_recognized = replay.dummies_recognized;
            remote.dummies_expected = replay.dummies_expected;
            remote.spot_check_passed = replay.spot_check_passed;
            w.PutU8(static_cast<uint8_t>(status));
            w.PutU8(0);
            w.PutVarint(watermark);
            w.PutVarint(journal.n);
            w.PutVarint(journal.n_fake);
            w.PutU8(journal.calibration);
            w.PutBytes(SerializeRoundResult(remote));
            reply.payload = w.Release();
            return EnqueueReply(c, reply);
          }
        }
      }
      if (!answered) {
        // Stash fallback: a round finalized this process lifetime but
        // already garbage-collected from the store still answers from
        // the in-memory stash. Watermark 0 — the durable consumed count
        // is gone with the segment.
        std::lock_guard<std::mutex> lock(server_->result_mu_);
        if (server_->have_last_result_ &&
            server_->last_round_ == frame.round_id) {
          w.PutU8(static_cast<uint8_t>(RoundStatus::kFinalized));
          w.PutU8(server_->last_durability_degraded_ ? 1 : 0);
          w.PutVarint(0);
          w.PutVarint(server_->last_n_);
          w.PutVarint(server_->last_n_fake_);
          w.PutU8(server_->last_calibration_);
          w.PutBytes(SerializeRoundResult(server_->last_result_));
          reply.payload = w.Release();
          answered = true;
        }
      }
      if (!reply.payload.empty()) return EnqueueReply(c, reply);
      w.PutU8(static_cast<uint8_t>(status));
      w.PutU8(degraded ? 1 : 0);
      w.PutVarint(watermark);
      reply.payload = w.Release();
      return EnqueueReply(c, reply);
    }
    case FrameType::kResult:
    case FrameType::kError:
      return Status::ProtocolViolation(
          "client sent a server-to-client frame type");
  }
  return Status::ProtocolViolation("unhandled frame type");
}

// ---------------------------------------------------------------------------
// CollectorClient
// ---------------------------------------------------------------------------

Result<std::unique_ptr<CollectorClient>> CollectorClient::Connect(
    const std::string& host, uint16_t port,
    const CollectorClientOptions& options) {
  const std::string peer = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address: " + host);
  }
  SHUFFLEDP_RETURN_NOT_OK(ApplyFault(FaultOp::kConnect, port, peer));
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) {
    ::close(fd);
    return nonblocking;
  }
  Status connected = ConnectDeadline(
      fd, addr, DeadlineTimer::After(options.connect_timeout_ms), peer);
  if (!connected.ok()) {
    ::close(fd);
    return connected;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<CollectorClient>(
      new CollectorClient(fd, port, peer, options));
}

CollectorClient::~CollectorClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status CollectorClient::WriteFrame(Frame frame) {
  frame.partition = partition_;
  return WriteFrameTo(fd_, frame,
                      DeadlineTimer::After(options_.write_timeout_ms), port_,
                      peer_);
}

Result<uint64_t> CollectorClient::Hello(const PartitionMap& map,
                                        uint32_t partition_id) {
  Frame hello;
  hello.type = FrameType::kHello;
  ByteWriter w;
  w.PutBytes(SerializePartitionMap(map));
  w.PutVarint(partition_id);
  hello.payload = w.Release();
  const uint16_t previous = partition_;
  partition_ = static_cast<uint16_t>(partition_id);
  Status sent = WriteFrame(hello);
  if (!sent.ok()) {
    partition_ = previous;
    return sent;
  }
  auto reply = ReadFrame();
  if (!reply.ok()) {
    partition_ = previous;
    return reply.status();
  }
  if (reply->type != FrameType::kHello) {
    partition_ = previous;
    return Status::ProtocolViolation("expected a hello reply");
  }
  ByteReader r(reply->payload);
  auto echo_map = ParsePartitionMap(&r);
  auto echo_partition = r.GetVarint();
  if (!echo_map.ok() || !echo_partition.ok() || !r.AtEnd()) {
    partition_ = previous;
    return Status::ProtocolViolation("malformed hello reply");
  }
  if (*echo_map != map || *echo_partition != partition_id) {
    partition_ = previous;
    return Status::ProtocolViolation(
        "endpoint disagrees with the partition layout: speaks " +
        echo_map->ToString() + " owning partition " +
        std::to_string(*echo_partition));
  }
  return reply->round_id;
}

Result<Frame> CollectorClient::ReadFrame() {
  Frame frame;
  uint8_t buf[65536];
  // One deadline for the whole frame (it may arrive across many reads):
  // a reply that cannot complete inside read_timeout_ms means the peer
  // is wedged or the link is blackholed — kDeadlineExceeded, retryable.
  DeadlineTimer deadline = DeadlineTimer::After(options_.read_timeout_ms);
  while (!decoder_.Next(&frame)) {
    size_t got = 0;
    SHUFFLEDP_RETURN_NOT_OK(
        RecvSomeDeadline(fd_, buf, sizeof(buf), deadline, port_, peer_,
                         &got));
    if (got == 0) {
      // A peer that vanished mid-conversation is a transient fleet
      // event (endpoint crash/restart), not corrupt data: kUnavailable
      // so the recovery layer reconnects and replays.
      return Status::Unavailable("server " + peer_ +
                                 " closed the connection mid-frame");
    }
    SHUFFLEDP_RETURN_NOT_OK(decoder_.Feed(buf, got));
  }
  if (frame.type == FrameType::kError) {
    ByteReader r(frame.payload);
    auto code = r.GetU8();
    auto message = r.GetLengthPrefixed();
    if (code.ok() && message.ok()) {
      return Status(static_cast<StatusCode>(*code),
                    "endpoint error: " +
                        std::string(message->begin(), message->end()));
    }
    return Status::ProtocolViolation("endpoint sent a malformed error frame");
  }
  return frame;
}

Status CollectorClient::SendOrdinals(
    uint64_t round_id, const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& ordinals) {
  // One producer batch must stay one frame: the server's consumed-batch
  // watermark counts consumed frames, and crash recovery replays by
  // *producer* batch index — silently splitting an oversized batch here
  // would desynchronize those units and corrupt a recovered round. So a
  // batch that cannot fit one frame is an actionable configuration
  // error, not something to paper over.
  const size_t width = ldp::WireReportBytes(oracle);
  if (ordinals.size() > (kMaxFramePayload - 10) / width) {  // 10: varint
    return Status::InvalidArgument(
        "batch of " + std::to_string(ordinals.size()) + " reports (" +
        std::to_string(width) + " B each) cannot fit one transport frame; "
        "lower StreamingOptions::batch_size below " +
        std::to_string((kMaxFramePayload - 10) / width));
  }
  Frame frame;
  frame.type = FrameType::kBatch;
  frame.round_id = round_id;
  frame.payload = ldp::SerializeOrdinals(oracle, ordinals);
  return WriteFrame(std::move(frame));
}

Status CollectorClient::SendOrdinals(
    uint64_t round_id, uint64_t batch_index,
    const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& ordinals) {
  const size_t width = ldp::WireReportBytes(oracle);
  // 20: the batch-index and report-count varints (<= 10 bytes each).
  if (ordinals.size() > (kMaxFramePayload - 20) / width) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(ordinals.size()) + " reports (" +
        std::to_string(width) + " B each) cannot fit one transport frame; "
        "lower StreamingOptions::batch_size below " +
        std::to_string((kMaxFramePayload - 20) / width));
  }
  Frame frame;
  frame.type = FrameType::kBatchIndexed;
  frame.round_id = round_id;
  frame.payload = ldp::SerializeIndexedOrdinals(oracle, batch_index, ordinals);
  return WriteFrame(std::move(frame));
}

Status CollectorClient::SendReports(
    uint64_t round_id, const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<ldp::LdpReport>& reports) {
  std::vector<uint64_t> ordinals;
  ordinals.reserve(reports.size());
  for (const ldp::LdpReport& r : reports) {
    ordinals.push_back(oracle.PackOrdinal(r));
  }
  return SendOrdinals(round_id, oracle, ordinals);
}

Status CollectorClient::SendFinish(uint64_t round_id, uint64_t n,
                                   uint64_t n_fake, Calibration calibration) {
  Frame frame;
  frame.type = FrameType::kFinish;
  frame.round_id = round_id;
  ByteWriter w;
  w.PutVarint(n);
  w.PutVarint(n_fake);
  w.PutU8(static_cast<uint8_t>(calibration));
  frame.payload = w.Release();
  return WriteFrame(frame);
}

Result<RemoteRoundResult> CollectorClient::ReadRoundResult() {
  SHUFFLEDP_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.type != FrameType::kResult) {
    return Status::ProtocolViolation("expected a result frame");
  }
  return ParseRoundResult(frame.payload);
}

Result<RemoteRoundResult> CollectorClient::FinishRound(
    uint64_t round_id, uint64_t n, uint64_t n_fake, Calibration calibration) {
  SHUFFLEDP_RETURN_NOT_OK(SendFinish(round_id, n, n_fake, calibration));
  return ReadRoundResult();
}

Result<uint64_t> CollectorClient::QueryWatermark(uint64_t* round_id_out) {
  Frame query;
  query.type = FrameType::kWatermark;
  SHUFFLEDP_RETURN_NOT_OK(WriteFrame(query));
  SHUFFLEDP_ASSIGN_OR_RETURN(Frame reply, ReadFrame());
  if (reply.type != FrameType::kWatermark) {
    return Status::ProtocolViolation("expected a watermark reply");
  }
  ByteReader r(reply.payload);
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t watermark, r.GetVarint());
  if (!r.AtEnd()) {
    return Status::ProtocolViolation("watermark reply has trailing bytes");
  }
  if (round_id_out != nullptr) *round_id_out = reply.round_id;
  return watermark;
}

Result<RoundQuery> CollectorClient::QueryRound(uint64_t round_id) {
  Frame query;
  query.type = FrameType::kQuery;
  query.round_id = round_id;
  SHUFFLEDP_RETURN_NOT_OK(WriteFrame(query));
  SHUFFLEDP_ASSIGN_OR_RETURN(Frame reply, ReadFrame());
  if (reply.type != FrameType::kQuery) {
    return Status::ProtocolViolation("expected a round-query reply");
  }
  ByteReader r(reply.payload);
  RoundQuery out;
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t status, r.GetU8());
  if (status > static_cast<uint8_t>(RoundStatus::kFinalized)) {
    return Status::ProtocolViolation("round-query reply has unknown status");
  }
  out.status = static_cast<RoundStatus>(status);
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  if ((flags & ~uint8_t{1}) != 0) {
    return Status::ProtocolViolation("round-query reply has unknown flags");
  }
  out.durability_degraded = (flags & 1) != 0;
  SHUFFLEDP_ASSIGN_OR_RETURN(out.watermark, r.GetVarint());
  if (out.status == RoundStatus::kFinalized) {
    SHUFFLEDP_ASSIGN_OR_RETURN(out.n, r.GetVarint());
    SHUFFLEDP_ASSIGN_OR_RETURN(out.n_fake, r.GetVarint());
    SHUFFLEDP_ASSIGN_OR_RETURN(out.calibration, r.GetU8());
    if (out.calibration > static_cast<uint8_t>(Calibration::kNone)) {
      return Status::ProtocolViolation(
          "round-query reply has unknown calibration");
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(Bytes rest, r.GetBytes(r.Remaining()));
    SHUFFLEDP_ASSIGN_OR_RETURN(out.result, ParseRoundResult(rest));
  } else if (!r.AtEnd()) {
    return Status::ProtocolViolation("round-query reply has trailing bytes");
  }
  return out;
}

}  // namespace service
}  // namespace shuffledp
