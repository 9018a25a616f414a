#include "trace.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr size_t kCounters = static_cast<size_t>(Counter::kNumCounters);

// A thread's span buffer, open-span stack and counters. Owned by the
// registry so spans outlive the (pool, consumer, event-loop) threads that
// wrote them. Only the owning thread writes its counters, so an increment
// is a plain load and store (no locked instruction on the per-row path);
// the atomics only make concurrent reads race-free.
struct alignas(64) ThreadBuffer {
  uint32_t index = 0;
  std::array<std::atomic<uint64_t>, kCounters> counters{};
  std::vector<Span> spans;
  std::vector<uint64_t> open;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_round{0};
std::atomic<uint64_t> g_round_root{0};
std::atomic<uint64_t> g_next_span{1};

std::mutex g_registry_mu;
// Never destroyed: a thread still running at process exit must not find
// its buffer freed under it.
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->index = static_cast<uint32_t>(Registry().size());
    t_buffer = buffer.get();
    Registry().push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRound: return "round";
    case SpanKind::kPlan: return "core.planner.plan";
    case SpanKind::kShuffleRun: return "shuffle.run";
    case SpanKind::kSendBatch: return "service.transport.send_batch";
    case SpanKind::kFinish: return "service.coordinator.finish_round";
    case SpanKind::kAccumulate: return "ldp.accumulate_supports";
    case SpanKind::kSupportsMany: return "ldp.supports_many";
    case SpanKind::kStoreAppend: return "service.round_store.append_delta";
    case SpanKind::kStoreFinalize: return "service.round_store.finalize_round";
    case SpanKind::kStoreClose: return "service.round_store.close_round";
    case SpanKind::kStoreAbandon: return "service.round_store.abandon_round";
    case SpanKind::kStoreLoad: return "service.round_store.load_all";
    case SpanKind::kStoreQuery: return "service.round_store.query";
    case SpanKind::kNumKinds: break;
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRound(uint32_t round, uint64_t root_span) {
  g_round.store(round, std::memory_order_relaxed);
  g_round_root.store(root_span, std::memory_order_relaxed);
}

void Tracer::Count(Counter counter, uint64_t delta) {
  if (!enabled()) return;
  std::atomic<uint64_t>& value =
      Buffer()->counters[static_cast<size_t>(counter)];
  value.store(value.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

uint64_t Tracer::Read(Counter counter) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t sum = 0;
  for (const auto& buffer : Registry()) {
    sum += buffer->counters[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  return sum;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> all;
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    buffer->spans.clear();
    buffer->open.clear();
    for (auto& value : buffer->counters) {
      value.store(0, std::memory_order_relaxed);
    }
  }
}

ScopedSpan::ScopedSpan(SpanKind kind) : kind_(kind) {
  if (!Tracer::enabled()) return;
  ThreadBuffer* buffer = Buffer();
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = buffer->open.empty()
                ? g_round_root.load(std::memory_order_relaxed)
                : buffer->open.back();
  round_ = g_round.load(std::memory_order_relaxed);
  buffer->open.push_back(id_);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer* buffer = Buffer();
  if (!buffer->open.empty()) buffer->open.pop_back();
  Span span;
  span.kind = kind_;
  span.thread = buffer->index;
  span.round = round_;
  span.id = id_;
  span.parent = parent_;
  span.start_ns = start_ns_;
  span.end_ns = end_ns;
  buffer->spans.push_back(span);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children on the parent's own thread nest inside it; children on other
  // threads run concurrently and do not reduce the parent's self time.
  for (const Span& span : spans) {
    auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    if (spans[parent->second].thread != span.thread) continue;
    self[parent->second] -= span.end_ns - span.start_ns;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans);
  std::fprintf(f, "name\tthread\tround\tid\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\t%u\t%u\t%llu\t%llu\t%lld\t%lld\t%lld\n",
                 SpanName(s.kind), s.thread, s.round,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
