#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "core/planner.h"
#include "core/shuffle_dp.h"
#include "crypto/secure_random.h"
#include "data/datasets.h"
#include "layer_wrappers.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "ldp/wire.h"
#include "service/coordinator.h"
#include "service/partition.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "shuffle/peos.h"
#include "shuffle/sequential_shuffle.h"
#include "trace.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = shuffledp::core;
namespace crypto = shuffledp::crypto;
namespace ldp = shuffledp::ldp;
namespace service = shuffledp::service;
namespace shuffle = shuffledp::shuffle;
using shuffledp::Result;
using shuffledp::Rng;
using shuffledp::Status;
using shuffledp::ThreadPool;
using shuffledp::WallTimer;

namespace {

constexpr double kDelta = 1e-9;
constexpr double kEpsCentral = 0.5;
constexpr uint64_t kBatchSize = 4096;
constexpr uint32_t kShufflers = 3;
constexpr uint32_t kEndpoints = 2;
// Protocol randomness is pinned: Paillier prime search and ECIES key
// generation then cost the same in every round of every run, and the
// same inputs must give bitwise-identical estimates round after round.
constexpr uint64_t kProtocolSeed = 0x5EC0DE5EC0DEULL;

// Workload shapes.
constexpr uint64_t kSsUsers = 2000;
constexpr uint64_t kSsDomain = 915;
constexpr uint64_t kSsPlanUsers = 602325;  // IPUMS-sized deployment
constexpr uint64_t kSsDummies = 20;
constexpr uint64_t kPeosUsers = 5000;
constexpr uint64_t kDomain = 1024;  // peos-eos and both fleets
constexpr uint64_t kSolhUsers = 100000;
constexpr uint64_t kGrrUsers = 500000;

unsigned HostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<uint64_t> Histogram(const std::vector<uint64_t>& values,
                                uint64_t d) {
  std::vector<uint64_t> counts(d, 0);
  for (uint64_t v : values) ++counts[v];
  return counts;
}

// Mean over the domain of Var(estimate_v) for n users (true counts
// `counts`) plus n_fake uniform fakes supporting each value w.p. q_fake:
// Var(support_v) = c_v p(1-p) + (n - c_v) q(1-q) + n_fake q_f(1-q_f),
// divided by (n (p - q))^2.
double MeanEstimateVariance(const ldp::ScalarFrequencyOracle& oracle,
                            const std::vector<uint64_t>& counts, uint64_t n,
                            uint64_t n_fake, double q_fake) {
  const ldp::SupportProbs probs = oracle.support_probs();
  const double p = probs.p_true;
  const double q = probs.q_other;
  const double scale = static_cast<double>(n) * (p - q);
  double sum = 0.0;
  for (uint64_t c : counts) {
    const double cv = static_cast<double>(c);
    const double var = cv * p * (1 - p) +
                       (static_cast<double>(n) - cv) * q * (1 - q) +
                       static_cast<double>(n_fake) * q_fake * (1 - q_fake);
    sum += var / (scale * scale);
  }
  return sum / static_cast<double>(counts.size());
}

// ---------------------------------------------------------------------------
// Protocol workloads
// ---------------------------------------------------------------------------

class SsOnion : public Workload {
 public:
  explicit SsOnion(const Inputs& inputs) : Workload(inputs) {}

  Status Setup(bool traced) override {
    {
      ScopedSpan span(SpanKind::kPlan);
      WallTimer timer;
      auto oracle = ldp::MakeSolh(kEpsCentral, kSsPlanUsers, kSsDomain, kDelta);
      if (!oracle.ok()) return oracle.status();
      oracle_ = std::move(oracle).value();
      plan_seconds_ = timer.ElapsedSeconds();
    }
    if (traced) tracing_ = std::make_unique<TracingOracle>(*oracle_);
    pool_ = std::make_unique<ThreadPool>(HostThreads());
    config_.num_shufflers = kShufflers;
    config_.spot_check_dummies = kSsDummies;
    config_.pool = pool_.get();
    return Status::OK();
  }

  Result<RoundOutcome> RunRound() override {
    crypto::SecureRandom rng(kProtocolSeed);
    RoundOutcome out;
    WallTimer timer;
    Result<shuffle::SequentialShuffleResult> result =
        Status::Internal("not run");
    {
      ScopedSpan span(SpanKind::kShuffleRun);
      result = tracing_ != nullptr
                   ? shuffle::RunSequentialShuffle(*tracing_, inputs_.values,
                                                   config_, &rng)
                   : shuffle::RunSequentialShuffle(*oracle_, inputs_.values,
                                                   config_, &rng);
    }
    out.run_seconds = timer.ElapsedSeconds();
    if (!result.ok()) return result.status();
    out.estimates = std::move(result->estimates);
    out.spot_check_passed = result->spot_check_passed;
    out.costs = result->costs;
    out.streaming = result->streaming;
    return out;
  }

  double UserUploadBytes(const RoundOutcome& outcome) const override {
    return static_cast<double>(outcome.costs.user_comm_bytes_per_user);
  }

  double AnalyticVariance() const override {
    return MeanEstimateVariance(*oracle_, inputs_.true_counts,
                                inputs_.values.size(), 0, 0.0);
  }

  unsigned pool_threads() const override { return pool_->num_threads(); }

 private:
  std::unique_ptr<ldp::LocalHash> oracle_;
  std::unique_ptr<TracingOracle> tracing_;
  std::unique_ptr<ThreadPool> pool_;
  shuffle::SequentialShuffleConfig config_;
};

class PeosEos : public Workload {
 public:
  explicit PeosEos(const Inputs& inputs) : Workload(inputs) {}

  Status Setup(bool traced) override {
    pool_ = std::make_unique<ThreadPool>(HostThreads());
    core::ShuffleDpCollector::Options options;
    options.num_shufflers = kShufflers;
    options.pool = pool_.get();
    {
      ScopedSpan span(SpanKind::kPlan);
      WallTimer timer;
      auto collector = core::ShuffleDpCollector::Create(
          core::PrivacyGoals{}, inputs_.values.size(), inputs_.domain,
          options);
      if (!collector.ok()) return collector.status();
      collector_ = std::move(collector).value();
      plan_seconds_ = timer.ElapsedSeconds();
    }
    if (traced) {
      // The PeosConfig Collect() builds from the same options and plan.
      tracing_ = std::make_unique<TracingOracle>(collector_->oracle());
      config_.num_shufflers = options.num_shufflers;
      config_.fake_reports = collector_->plan().n_r;
      config_.paillier_bits = options.paillier_bits;
      config_.use_randomizer_pool = options.use_randomizer_pool;
      config_.streaming = options.streaming;
      config_.pool = pool_.get();
    }
    return Status::OK();
  }

  Result<RoundOutcome> RunRound() override {
    crypto::SecureRandom rng(kProtocolSeed);
    RoundOutcome out;
    WallTimer timer;
    Result<shuffle::PeosResult> result = Status::Internal("not run");
    {
      ScopedSpan span(SpanKind::kShuffleRun);
      result = tracing_ != nullptr
                   ? shuffle::RunPeos(*tracing_, inputs_.values, config_, &rng)
                   : collector_->Collect(inputs_.values, &rng);
    }
    out.run_seconds = timer.ElapsedSeconds();
    if (!result.ok()) return result.status();
    out.estimates = std::move(result->estimates);
    out.costs = result->costs;
    out.streaming = result->streaming;
    return out;
  }

  double UserUploadBytes(const RoundOutcome& outcome) const override {
    return static_cast<double>(outcome.costs.user_comm_bytes_per_user);
  }

  double AnalyticVariance() const override {
    const ldp::ScalarFrequencyOracle& oracle = collector_->oracle();
    return MeanEstimateVariance(oracle, inputs_.true_counts,
                                inputs_.values.size(), collector_->plan().n_r,
                                oracle.OrdinalFakeSupportProb());
  }

  unsigned pool_threads() const override { return pool_->num_threads(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<core::ShuffleDpCollector> collector_;
  std::unique_ptr<TracingOracle> tracing_;
  shuffle::PeosConfig config_;
};

// ---------------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------------

// The fleet's oracle and fake count, from the same planner call the
// set-up times (and the input generator repeats outside the clock).
struct FleetPlan {
  std::unique_ptr<ldp::ScalarFrequencyOracle> oracle;
  uint64_t fakes = 0;
  service::PartitionMode mode = service::PartitionMode::kByClient;
  service::Calibration calibration = service::Calibration::kStandard;
};

Result<FleetPlan> PlanFleet(const std::string& workload) {
  FleetPlan plan;
  if (workload == "fleet-solh") {
    auto solh = ldp::MakeSolh(kEpsCentral, kSolhUsers, kDomain, kDelta);
    if (!solh.ok()) return solh.status();
    plan.oracle = std::move(solh).value();
    plan.mode = service::PartitionMode::kByClient;
    plan.calibration = service::Calibration::kStandard;
    return plan;
  }
  auto peos = core::PlanPeos(core::PrivacyGoals{}, kGrrUsers, kDomain);
  if (!peos.ok()) return peos.status();
  if (!peos->use_grr) {
    return Status::FailedPrecondition("fleet-grr: the planner chose SOLH");
  }
  plan.oracle = std::make_unique<ldp::Grr>(peos->eps_l, kDomain);
  plan.fakes = peos->n_r;
  plan.mode = service::PartitionMode::kByValue;
  plan.calibration = service::Calibration::kOrdinal;
  return plan;
}

class Fleet : public Workload {
 public:
  Fleet(const Inputs& inputs, std::string store_dir)
      : Workload(inputs), store_dir_(std::move(store_dir)) {}

  ~Fleet() override {
    coordinator_.reset();
    routing_.reset();
    servers_.clear();  // joins every endpoint thread before the wipe
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
  }

  Status Setup(bool traced) override {
    {
      ScopedSpan span(SpanKind::kPlan);
      WallTimer timer;
      SHUFFLEDP_ASSIGN_OR_RETURN(plan_, PlanFleet(inputs_.workload));
      plan_seconds_ = timer.ElapsedSeconds();
    }
    if (plan_.fakes != inputs_.fleet_fakes) {
      return Status::Internal("fleet plan does not match its inputs");
    }
    if (traced) tracing_ = std::make_unique<TracingOracle>(*plan_.oracle);
    const ldp::ScalarFrequencyOracle& oracle = active_oracle();
    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::PartitionMap map,
        service::PartitionMap::Create(oracle, plan_.mode, kEndpoints));

    // A fresh store per set-up. SegmentedRoundStore::Open creates only the
    // leaf directory, so the parent must exist first.
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
    fs::create_directories(store_dir_, ec);
    if (ec) return Status::Internal("cannot create " + store_dir_);

    std::vector<service::EndpointAddress> endpoints;
    for (uint32_t p = 0; p < kEndpoints; ++p) {
      service::CollectionServerOptions options;
      options.partition_map = map;
      options.partition_id = p;
      options.streaming.batch_size = kBatchSize;
      options.streaming.pool = nullptr;  // serial consumers
      const std::string dir = store_dir_ + "/p" + std::to_string(p);
      if (traced) {
        // Slice identity filled exactly as CollectionServer::Start does
        // when it opens the store itself.
        service::PartitionSlice slice = map.SliceOf(p);
        if (slice.full_domain()) {
          slice.lo = 0;
          slice.hi = oracle.domain_size();
        }
        service::RoundStoreOptions store_options;
        store_options.dir = dir;
        store_options.partition_index = slice.index;
        store_options.partition_count = slice.count;
        store_options.slice_lo = slice.lo;
        store_options.slice_width = slice.hi - slice.lo;
        SHUFFLEDP_ASSIGN_OR_RETURN(
            std::unique_ptr<service::SegmentedRoundStore> store,
            service::SegmentedRoundStore::Open(store_options));
        options.streaming.store =
            std::make_shared<TracingRoundStore>(std::move(store));
      } else {
        options.streaming.round_store.dir = dir;
      }
      SHUFFLEDP_ASSIGN_OR_RETURN(
          std::unique_ptr<service::CollectionServer> server,
          service::CollectionServer::Start(oracle, options));
      endpoints.push_back({"127.0.0.1", server->port()});
      servers_.push_back(std::move(server));
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(
        routing_,
        service::PartitionRoutingClient::Connect(oracle, map, endpoints));
    coordinator_ =
        std::make_unique<service::MergeCoordinator>(oracle, routing_.get());
    round_ = 0;
    return Status::OK();
  }

  Result<RoundOutcome> RunRound() override {
    const uint64_t round = round_++;
    for (uint64_t b = 0; b < inputs_.batches.size(); ++b) {
      ScopedSpan span(SpanKind::kSendBatch);
      SHUFFLEDP_RETURN_NOT_OK(
          routing_->SendBatch(round, b, inputs_.batches[b]));
    }
    Result<service::RoundResult> merged = Status::Internal("not run");
    {
      ScopedSpan span(SpanKind::kFinish);
      merged = coordinator_->FinishRound(round, real_reports(), plan_.fakes,
                                         plan_.calibration);
    }
    if (!merged.ok()) return merged.status();
    RoundOutcome out;
    out.estimates = std::move(merged->estimates);
    out.spot_check_passed = merged->spot_check_passed;
    out.rows = merged->stats.rows;
    out.reports_decoded = merged->reports_decoded;
    out.reports_invalid = merged->reports_invalid;
    const service::RoundHealth& health = coordinator_->last_round_health();
    out.healthy = health.all_healthy();
    for (const service::PartitionHealth& h : health.partitions) {
      out.recoveries += h.recoveries;
      out.connection_drops += h.connection_drops;
    }
    return out;
  }

  double UserUploadBytes(const RoundOutcome&) const override {
    return inputs_.fleet_upload_bytes;
  }

  double AnalyticVariance() const override {
    const double q_fake = plan_.calibration == service::Calibration::kOrdinal
                              ? plan_.oracle->OrdinalFakeSupportProb()
                              : plan_.oracle->support_probs().q_fake;
    return MeanEstimateVariance(*plan_.oracle, inputs_.true_counts,
                                inputs_.values.size(), plan_.fakes, q_fake);
  }

  Result<std::vector<double>> Reference() const override {
    service::StreamingOptions options;
    options.batch_size = kBatchSize;
    service::StreamingCollector collector(*plan_.oracle, options);
    const ldp::ScalarFrequencyOracle* oracle = plan_.oracle.get();
    for (const std::vector<uint64_t>& batch : inputs_.batches) {
      auto ordinals = std::make_shared<std::vector<uint64_t>>(batch);
      service::ReportBatch report_batch;
      report_batch.count = ordinals->size();
      report_batch.decode =
          [ordinals, oracle](uint64_t i) -> Result<service::DecodedRow> {
        service::DecodedRow row;
        auto rep = oracle->UnpackOrdinal((*ordinals)[i]);
        if (!rep.ok()) return row;
        row.report = *rep;
        row.valid = true;
        return row;
      };
      SHUFFLEDP_RETURN_NOT_OK(collector.Offer(std::move(report_batch)));
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::RoundResult result,
        collector.FinishRound(real_reports(), plan_.fakes, plan_.calibration));
    return std::move(result.estimates);
  }

  FleetStats fleet_stats() const override {
    FleetStats sum;
    for (const auto& server : servers_) {
      const service::CollectionServerStats s = server->stats();
      sum.frames += s.frames_handled;
      sum.protocol_errors += s.protocol_errors;
      sum.batches_deduped += s.batches_deduped;
      sum.evictions += s.evicted_idle + s.evicted_slow + s.evicted_overflow;
    }
    return sum;
  }

  unsigned pool_threads() const override { return 0; }

  int event_threads() const override {
    // CollectionServerOptions::event_threads <= 0 resolves exactly so.
    int threads = 1;
    if (const char* env = std::getenv("SHUFFLEDP_EVENT_THREADS")) {
      threads = std::atoi(env);
      if (threads <= 0) threads = 1;
    }
    return std::min(threads, 64);
  }

 private:
  const ldp::ScalarFrequencyOracle& active_oracle() const {
    if (tracing_ != nullptr) return *tracing_;
    return *plan_.oracle;
  }

  std::string store_dir_;
  // Declaration order is teardown order, reversed: the coordinator
  // borrows the routing client, and everything borrows the oracles.
  FleetPlan plan_;
  std::unique_ptr<TracingOracle> tracing_;
  std::vector<std::unique_ptr<service::CollectionServer>> servers_;
  std::unique_ptr<service::PartitionRoutingClient> routing_;
  std::unique_ptr<service::MergeCoordinator> coordinator_;
  uint64_t round_ = 0;
};

// Producer batches of packed ordinals: user reports, then the fake
// blanket (uniform over the padded ordinal space), each batch seeded from
// its start index.
std::vector<std::vector<uint64_t>> EncodeBatches(
    const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& values, uint64_t fakes, uint64_t seed) {
  std::vector<std::vector<uint64_t>> batches;
  const uint64_t n = values.size();
  for (uint64_t lo = 0; lo < n; lo += kBatchSize) {
    const uint64_t hi = std::min(n, lo + kBatchSize);
    Rng rng(seed ^ (lo * 0x9E3779B97F4A7C15ULL));
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(oracle.PackOrdinal(oracle.Encode(values[i], &rng)));
    }
    batches.push_back(std::move(ordinals));
  }
  const unsigned bits = oracle.PackedBits();
  for (uint64_t lo = 0; lo < fakes; lo += kBatchSize) {
    const uint64_t hi = std::min(fakes, lo + kBatchSize);
    Rng rng(~seed ^ (lo * 0x9E3779B97F4A7C15ULL + 1));
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(bits >= 64 ? rng.NextU64()
                                    : rng.UniformU64(uint64_t{1} << bits));
    }
    batches.push_back(std::move(ordinals));
  }
  return batches;
}

// Wire bytes per ingested row: every producer batch ships one indexed
// frame to each endpoint (possibly empty), exactly as the routing client
// frames it.
Result<double> UploadBytesPerRow(const ldp::ScalarFrequencyOracle& oracle,
                                 service::PartitionMode mode,
                                 const std::vector<std::vector<uint64_t>>&
                                     batches) {
  SHUFFLEDP_ASSIGN_OR_RETURN(
      service::PartitionMap map,
      service::PartitionMap::Create(oracle, mode, kEndpoints));
  uint64_t bytes = 0;
  uint64_t rows = 0;
  for (uint64_t b = 0; b < batches.size(); ++b) {
    rows += batches[b].size();
    std::vector<std::vector<uint64_t>> groups = map.Route(b, batches[b]);
    for (uint32_t p = 0; p < kEndpoints; ++p) {
      shuffledp::ByteWriter payload;
      payload.PutVarint(b);
      payload.PutBytes(ldp::SerializeOrdinals(oracle, groups[p]));
      service::Frame frame;
      frame.type = service::FrameType::kBatchIndexed;
      frame.partition = static_cast<uint16_t>(p);
      frame.payload = payload.Release();
      bytes += service::EncodeFrame(frame).size();
    }
  }
  return rows == 0 ? 0.0
                   : static_cast<double>(bytes) / static_cast<double>(rows);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ss-onion", "peos-eos",
                                                 "fleet-solh", "fleet-grr"};
  return names;
}

Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed) {
  Inputs inputs;
  inputs.workload = workload;
  uint64_t n = 0;
  if (workload == "ss-onion") {
    n = kSsUsers;
    inputs.domain = kSsDomain;
  } else if (workload == "peos-eos") {
    n = kPeosUsers;
    inputs.domain = kDomain;
  } else if (workload == "fleet-solh") {
    n = kSolhUsers;
    inputs.domain = kDomain;
  } else if (workload == "fleet-grr") {
    n = kGrrUsers;
    inputs.domain = kDomain;
  } else {
    return Status::InvalidArgument("unknown workload " + workload);
  }
  inputs.values =
      shuffledp::data::MakeZipfDataset(workload, n, inputs.domain, 1.0, seed)
          .values;
  inputs.true_counts = Histogram(inputs.values, inputs.domain);
  if (workload.rfind("fleet-", 0) == 0) {
    SHUFFLEDP_ASSIGN_OR_RETURN(FleetPlan plan, PlanFleet(workload));
    inputs.fleet_fakes = plan.fakes;
    inputs.batches =
        EncodeBatches(*plan.oracle, inputs.values, plan.fakes, seed);
    SHUFFLEDP_ASSIGN_OR_RETURN(
        inputs.fleet_upload_bytes,
        UploadBytesPerRow(*plan.oracle, plan.mode, inputs.batches));
  }
  return inputs;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const Inputs& inputs,
                                               const std::string& store_dir) {
  if (inputs.workload == "ss-onion") {
    return std::unique_ptr<Workload>(new SsOnion(inputs));
  }
  if (inputs.workload == "peos-eos") {
    return std::unique_ptr<Workload>(new PeosEos(inputs));
  }
  if (inputs.workload == "fleet-solh" || inputs.workload == "fleet-grr") {
    return std::unique_ptr<Workload>(new Fleet(inputs, store_dir));
  }
  return Status::InvalidArgument("unknown workload " + inputs.workload);
}

}  // namespace perfbench
