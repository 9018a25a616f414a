// Single-node streaming collection — the 1-of-1 partition special case.
//
// All of the ingest/persist/drain machinery lives in
// partition_worker.h (PartitionWorker): a worker owns one slice of a
// collection round, and a distributed deployment runs many of them
// behind a MergeCoordinator (coordinator.h). StreamingCollector is the
// name the single-node world keeps: one worker owning the full value
// domain, calibrating its own estimates at round close. Every type the
// pipeline speaks (ReportBatch, StreamingOptions, RoundResult, …) is
// defined in partition_worker.h and re-exported through this header.
//
// New code should build a full-domain PartitionWorker instead. The shim
// stays only because perfbench/src/workloads.cpp includes this header
// and builds one; it goes with the benchmark change that drops it
// (ROADMAP item 1).

#ifndef SHUFFLEDP_SERVICE_STREAMING_COLLECTOR_H_
#define SHUFFLEDP_SERVICE_STREAMING_COLLECTOR_H_

#include "service/partition_worker.h"

namespace shuffledp {
namespace service {

/// Full-domain streaming collector; one instance per single-node
/// collection endpoint. Exactly a PartitionWorker whose slice is the
/// whole domain (any partition slice passed in options is overridden) —
/// see partition_worker.h for the pipeline contract.
class StreamingCollector : public PartitionWorker {
 public:
  StreamingCollector(const ldp::ScalarFrequencyOracle& oracle,
                     StreamingOptions options)
      : PartitionWorker(oracle, FullDomain(std::move(options))) {}

 private:
  static StreamingOptions FullDomain(StreamingOptions options) {
    options.partition = PartitionSlice{};
    return options;
  }
};

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_STREAMING_COLLECTOR_H_
