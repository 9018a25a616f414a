// The four benchmark workloads, driven through the library's public API.
//
//   ss-onion    shuffle::RunSequentialShuffle, r = 3, SOLH (P-256 ECIES
//               onion through every shuffler)
//   peos-eos    core::ShuffleDpCollector::Collect (untraced) or
//               shuffle::RunPeos with the same PeosConfig (traced)
//   fleet-solh  two in-process service::CollectionServer endpoints,
//               by-client partitions, SOLH support kernel
//   fleet-grr   the same fleet, by-value partitions, GRR + PEOS fakes
//
// Every workload is a closed loop: one caller runs one round at a time.
// Inputs come from the seed alone and are generated before set-up; the
// protocol randomness (keys, shares, shuffles) is pinned to a constant so
// every round of every run does the same cryptographic work.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/partition_worker.h"
#include "service/transport.h"
#include "shuffle/cost_model.h"
#include "util/status.h"

namespace perfbench {

/// Seed-derived inputs, generated once per process outside every clock.
struct Inputs {
  std::string workload;
  uint64_t domain = 0;                ///< d
  std::vector<uint64_t> values;       ///< one true value per real user
  std::vector<uint64_t> true_counts;  ///< histogram of `values`
  /// Fleets: the pre-encoded producer batches (user reports, then the
  /// fake blanket). Client encoding runs on user devices, not on the
  /// collector, so it stays outside the round clock.
  std::vector<std::vector<uint64_t>> batches;
  uint64_t fleet_fakes = 0;           ///< fake ordinals in `batches`
  double fleet_upload_bytes = 0.0;    ///< wire bytes per ingested row
};

const std::vector<std::string>& WorkloadNames();

shuffledp::Result<Inputs> MakeInputs(const std::string& workload,
                                     uint64_t seed);

/// What one round returned, for the output checks and the trace.
struct RoundOutcome {
  std::vector<double> estimates;
  bool spot_check_passed = true;
  // Protocol workloads.
  shuffledp::shuffle::CostReport costs;
  shuffledp::service::StreamingStats streaming;
  double run_seconds = 0.0;  ///< the Run*/Collect call alone
  // Fleet workloads.
  uint64_t rows = 0;
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t recoveries = 0;
  uint64_t connection_drops = 0;
  bool healthy = true;
};

/// Sum of CollectionServer::stats() over a fleet's endpoints.
struct FleetStats {
  uint64_t frames = 0;
  uint64_t protocol_errors = 0;
  uint64_t batches_deduped = 0;
  uint64_t evictions = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Planning, keys, thread pool, endpoints, store open, handshakes.
  /// `traced` routes the round through the forwarding wrappers.
  virtual shuffledp::Status Setup(bool traced) = 0;

  virtual shuffledp::Result<RoundOutcome> RunRound() = 0;

  /// Wall time of the planner call made by the last Setup.
  double plan_seconds() const { return plan_seconds_; }

  /// Real (non-fake) user reports per round.
  uint64_t real_reports() const { return inputs_.values.size(); }

  /// Bytes each user uploads (per ingested row on the fleets).
  virtual double UserUploadBytes(const RoundOutcome& outcome) const = 0;

  /// Mean analytic variance of the calibrated estimates over the domain.
  virtual double AnalyticVariance() const = 0;

  /// Estimates of one in-process full-domain StreamingCollector fed the
  /// same ordinal stream (fleets); empty for the protocol workloads.
  virtual shuffledp::Result<std::vector<double>> Reference() const {
    return std::vector<double>{};
  }

  virtual FleetStats fleet_stats() const { return FleetStats{}; }

  /// ThreadPool size and event-loop thread count (environment stamp).
  virtual unsigned pool_threads() const = 0;
  virtual int event_threads() const { return 0; }

 protected:
  explicit Workload(const Inputs& inputs) : inputs_(inputs) {}

  const Inputs& inputs_;
  double plan_seconds_ = 0.0;
};

/// `store_root` is the directory the fleets keep their round stores
/// under (created and wiped by the workload).
shuffledp::Result<std::unique_ptr<Workload>> MakeWorkload(
    const Inputs& inputs, const std::string& store_root);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
