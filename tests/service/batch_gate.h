// Test helper: holds one batch's prepare stage on the consumer thread
// until the test opens the gate, so the batches offered meanwhile are
// all waiting in the queue when the consumer resumes. That makes the
// worker's group commit deterministic — the drained run is exactly the
// batches queued behind the gate — instead of depending on whether the
// producer happened to outrun the fsync.

#ifndef SHUFFLEDP_TESTS_SERVICE_BATCH_GATE_H_
#define SHUFFLEDP_TESTS_SERVICE_BATCH_GATE_H_

#include <future>
#include <utility>

#include "service/partition_worker.h"

namespace shuffledp {
namespace service {

/// One-shot latch for a batch's prepare stage. Destroying the gate opens
/// it, so a failed ASSERT cannot leave the consumer parked: declare it
/// *after* the worker it gates, so it dies (and opens) first.
class BatchGate {
 public:
  BatchGate() : opened_(promise_.get_future().share()) {}
  ~BatchGate() { Open(); }

  BatchGate(const BatchGate&) = delete;
  BatchGate& operator=(const BatchGate&) = delete;

  /// Returns `batch` with a prepare stage that first waits for Open().
  ReportBatch Hold(ReportBatch batch) {
    std::shared_future<void> opened = opened_;
    batch.prepare = [opened, inner = std::move(batch.prepare)](
                        ThreadPool* pool) {
      opened.wait();
      return inner ? inner(pool) : Status::OK();
    };
    return batch;
  }

  void Open() {
    if (open_) return;
    open_ = true;
    promise_.set_value();
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> opened_;
  bool open_ = false;
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_TESTS_SERVICE_BATCH_GATE_H_
