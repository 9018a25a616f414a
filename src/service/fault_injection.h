// Deterministic scripted fault injection for the transport tier.
//
// The chaos tests need to prove statements like "a fleet round survives
// one endpoint dying mid-round and another running slow, bitwise" and
// "a permanently dead endpoint fails the round inside its deadline" —
// and they need those runs to be *reproducible*, because a flaky chaos
// test is worse than none. So faults are not random monkey-patching:
// they are a scripted schedule of rules evaluated at the four transport
// syscall sites (connect / accept / send / recv), each rule matched by
// operation + TCP port + call ordinal, with any probabilistic firing
// drawn from a seeded Rng so the same seed replays the same schedule.
//
// The hook is a process-global pointer that is null in production: the
// fast path is one relaxed atomic load per syscall. Tests install an
// injector (ScopedFaultInjector), drive the scenario, and uninstall it;
// the transport never behaves differently unless something was
// installed.
//
// What rules can do:
//   kFailErrno      the syscall fails with the scripted errno without
//                   running (refused connects, resets, EPIPE).
//   kDelayMs        sleep before the syscall (slow peers, congested
//                   links); the per-operation deadline keeps ticking,
//                   so a large-enough delay exercises the timeout path.
//   kTruncateSend   cap one send() at N bytes (torn writes: the peer's
//                   frame decoder must reassemble or the CRC must
//                   catch it). Chain with a kFailErrno rule to model
//                   "close after N bytes".
//
// Rules fire on the Nth..(N+count)th matching call (skip/count), so a
// schedule like "partition 1's sends succeed 3 times, then the
// connection resets, then the restarted endpoint accepts" is three
// rules, not a coin flip.

#ifndef SHUFFLEDP_SERVICE_FAULT_INJECTION_H_
#define SHUFFLEDP_SERVICE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"

namespace shuffledp {
namespace service {

/// Syscall sites that consult the injector: the four transport sites
/// plus the four storage sites the durable round store writes through
/// (WAL appends, segment staging, fsync barriers, atomic renames,
/// segment unlinks). Storage sites pass port 0; rules targeting them
/// should leave `port` at 0 (match any).
enum class FaultOp : uint8_t {
  kConnect = 0,
  kAccept = 1,
  kSend = 2,
  kRecv = 3,
  kFileWrite = 4,
  kFileSync = 5,
  kFileRename = 6,
  kFileUnlink = 7,
};

inline constexpr size_t kNumFaultOps = 8;

/// True for the storage sites (kFileWrite/kFileSync/kFileRename/
/// kFileUnlink).
inline bool IsStorageFaultOp(FaultOp op) {
  return op == FaultOp::kFileWrite || op == FaultOp::kFileSync ||
         op == FaultOp::kFileRename || op == FaultOp::kFileUnlink;
}

const char* FaultOpName(FaultOp op);

/// What an armed rule does to the matched call.
struct FaultAction {
  enum class Kind : uint8_t {
    kNone = 0,          ///< pass through untouched
    kFailErrno = 1,     ///< fail with `err` before the syscall runs
    kDelayMs = 2,       ///< sleep `delay_ms`, then run normally
    kTruncateSend = 3,  ///< cap this send() at `max_bytes` bytes
  };
  Kind kind = Kind::kNone;
  int err = 0;
  uint64_t delay_ms = 0;
  uint64_t max_bytes = 0;

  static FaultAction None() { return {}; }
  static FaultAction FailErrno(int err) {
    FaultAction a;
    a.kind = Kind::kFailErrno;
    a.err = err;
    return a;
  }
  static FaultAction DelayMs(uint64_t ms) {
    FaultAction a;
    a.kind = Kind::kDelayMs;
    a.delay_ms = ms;
    return a;
  }
  static FaultAction TruncateSend(uint64_t max_bytes) {
    FaultAction a;
    a.kind = Kind::kTruncateSend;
    // Clamp to >= 1: a 0-byte cap would make the transport call
    // ::send(fd, p, 0), whose 0 return is indistinguishable from a
    // send failure and would be mislabeled with a stale errno. The
    // smallest expressible torn write is 1 byte.
    a.max_bytes = max_bytes == 0 ? 1 : max_bytes;
    return a;
  }
};

/// One scripted fault: fires on matching (op, port) calls numbered
/// [skip, skip + count) — the match counter is per rule — with
/// probability `probability` per eligible call (sampled from the
/// injector's seeded stream, so a fixed seed replays the exact firing
/// pattern).
struct FaultRule {
  FaultOp op = FaultOp::kSend;
  /// TCP port the operation targets: the server's listening port for
  /// every site (clients match the port they dial; server-side accept/
  /// recv/send match the endpoint's own port). 0 matches any port.
  uint16_t port = 0;
  uint64_t skip = 0;
  uint64_t count = std::numeric_limits<uint64_t>::max();
  double probability = 1.0;
  FaultAction action;
};

/// Scripted, seeded fault schedule. Thread-safe: transport threads
/// evaluate concurrently; rule matching and the jitter stream are
/// serialized under one mutex (these are test paths — determinism
/// outranks contention).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xFA17ULL) : rng_(seed) {}

  /// Appends a rule; earlier rules win when several match one call.
  void AddRule(const FaultRule& rule);

  /// Consults the schedule for one syscall. Every matching rule's
  /// counter advances; the first armed one supplies the action.
  FaultAction Evaluate(FaultOp op, uint16_t port);

  /// Arms the storage kill switch: the `after_ops`-th and every later
  /// storage-site evaluation (kFileWrite/kFileSync/kFileRename share
  /// one global counter) fails with `err`, overriding the rule list.
  /// This is how the crash-point harness simulates a process dying at
  /// one exact point in the fsync-barrier timeline — after the kill
  /// point, *nothing* reaches disk, exactly as after a real crash.
  void ArmStorageKill(uint64_t after_ops, int err);

  /// Total actions injected (diagnostics / test assertions).
  uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }
  /// Injected actions at one site.
  uint64_t injected(FaultOp op) const {
    return injected_by_op_[static_cast<size_t>(op)].load(
        std::memory_order_relaxed);
  }
  /// Total storage-site evaluations (fault-free counting runs use this
  /// to enumerate the crash points ArmStorageKill can target).
  uint64_t storage_evaluations() const {
    return storage_calls_.load(std::memory_order_relaxed);
  }

 private:
  struct RuleState {
    FaultRule rule;
    uint64_t matched = 0;  ///< matching calls seen so far
  };

  std::mutex mu_;
  Rng rng_;
  std::vector<RuleState> rules_;
  bool kill_armed_ = false;
  uint64_t kill_after_ops_ = 0;
  int kill_err_ = 0;
  std::atomic<uint64_t> injected_{0};
  std::atomic<uint64_t> storage_calls_{0};
  std::atomic<uint64_t> injected_by_op_[kNumFaultOps] = {{0}, {0}, {0}, {0},
                                                         {0}, {0}, {0}, {0}};
};

/// Evaluates the installed hook for one syscall site — what the
/// transport calls on every connect/accept/send/recv. Returns None when
/// no hook is installed (the production state: one atomic load). The
/// evaluation is pinned against SetFaultInjector, so the injector
/// cannot be swapped out (and destroyed) mid-evaluate.
FaultAction EvaluateInstalledFault(FaultOp op, uint16_t port);

/// Installs `injector` as the process-global transport hook (null
/// uninstalls). Blocks until every in-flight EvaluateInstalledFault on
/// the previous hook has drained: after uninstalling, the caller may
/// destroy the injector immediately, even with transport threads still
/// running. Returns the previous hook.
FaultInjector* SetFaultInjector(FaultInjector* injector);

/// The installed hook, or null (the production state) — for tests that
/// assert install state; the transport goes through
/// EvaluateInstalledFault.
FaultInjector* GetFaultInjector();

/// RAII install/uninstall for tests.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(SetFaultInjector(injector)) {}
  ~ScopedFaultInjector() { SetFaultInjector(previous_); }

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_FAULT_INJECTION_H_
