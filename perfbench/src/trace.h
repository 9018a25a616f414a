// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the library's layers from the
// benchmark's own files (the forwarding wrappers in layer_wrappers.h and
// the workloads' round code). Each span carries its name, start, end, parent
// span and round id. A span opened on a thread with no open span is a
// child of the current round's root span: that is how work the round
// causes on pool, consumer and event-loop threads joins the round's tree.
// Per-row calls are counted (and, for Encode, timed in aggregate) instead
// of spanned, so the trace stays small.
//
// Spans stay in memory until the workload is torn down; Collect() must run
// only after every thread that recorded spans has been joined.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kRound,          ///< one closed-loop round, opened by the round loop
  kPlan,           ///< PlanPeos / MakeSolh / ShuffleDpCollector::Create
  kShuffleRun,     ///< RunSequentialShuffle / RunPeos
  kSendBatch,      ///< PartitionRoutingClient::SendBatch
  kFinish,         ///< MergeCoordinator::FinishRound
  kAccumulate,     ///< ScalarFrequencyOracle::AccumulateSupports
  kSupportsMany,   ///< ScalarFrequencyOracle::SupportsMany
  kStoreAppend,    ///< RoundStore::AppendDelta
  kStoreFinalize,  ///< RoundStore::FinalizeRound
  kStoreClose,     ///< RoundStore::CloseRound
  kStoreAbandon,   ///< RoundStore::AbandonRound
  kStoreLoad,      ///< RoundStore::LoadAll
  kStoreQuery,     ///< RoundStore::Query
  kNumKinds,
};

const char* SpanName(SpanKind kind);

/// Per-row counters: counted at the call, never spanned.
enum class Counter : uint8_t {
  kEncodeCalls,
  kEncodeNs,
  kUnpackCalls,
  kStoreDeltaBytes,
  kNumCounters,
};

struct Span {
  SpanKind kind = SpanKind::kRound;
  uint32_t thread = 0;  ///< recorder-assigned thread index
  uint32_t round = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no parent
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// steady_clock nanoseconds.
int64_t NowNs();

/// Process-wide recorder. Disabled by default: a disabled ScopedSpan or
/// Count() costs one relaxed load.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Stamps later spans with `round`; spans opened on threads with no
  /// open span become children of `root_span`.
  static void SetRound(uint32_t round, uint64_t root_span);

  static void Count(Counter counter, uint64_t delta);
  /// Sum of `counter` over every thread.
  static uint64_t Read(Counter counter);

  /// Every recorded span, in no particular order. Call only after every
  /// recording thread has been joined.
  static std::vector<Span> Collect();

  /// Drops recorded spans and zeroes counters.
  static void Clear();
};

/// RAII span; records nothing while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanKind kind_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint32_t round_ = 0;
  int64_t start_ns_ = 0;
};

/// Writes spans as tab-separated lines (name, thread, round, id, parent,
/// start_ns, end_ns, self_ns). Self time is the span's duration minus its
/// children on the same thread. Returns false when the file cannot be
/// written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Self time of every span (same order as `spans`).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
