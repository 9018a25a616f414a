#include "core/shuffle_dp.h"

#include <algorithm>
#include <memory>

#include "ldp/estimator.h"
#include "ldp/fast_sim.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"

namespace shuffledp {
namespace core {

Result<std::unique_ptr<ShuffleDpCollector>> ShuffleDpCollector::Create(
    const PrivacyGoals& goals, uint64_t n, uint64_t domain_size,
    const Options& options) {
  SHUFFLEDP_ASSIGN_OR_RETURN(PeosPlan plan, PlanPeos(goals, n, domain_size));

  std::unique_ptr<ldp::ScalarFrequencyOracle> oracle;
  if (plan.use_grr) {
    oracle = std::make_unique<ldp::Grr>(plan.eps_l, domain_size);
  } else {
    oracle = std::make_unique<ldp::LocalHash>(plan.eps_l, domain_size,
                                              plan.d_prime, "PEOS-SOLH");
  }
  return std::unique_ptr<ShuffleDpCollector>(new ShuffleDpCollector(
      plan, n, domain_size, options, std::move(oracle)));
}

Result<shuffle::PeosResult> ShuffleDpCollector::Collect(
    const std::vector<uint64_t>& values, crypto::SecureRandom* rng) const {
  shuffle::PeosConfig config;
  config.num_shufflers = options_.num_shufflers;
  config.fake_reports = plan_.n_r;
  config.paillier_bits = options_.paillier_bits;
  config.use_randomizer_pool = options_.use_randomizer_pool;
  config.streaming = options_.streaming;
  // Default to the shared process pool (sized by SHUFFLEDP_THREADS) so the
  // full-crypto path is parallel out of the box; Options::pool overrides.
  config.pool = options_.pool != nullptr ? options_.pool : &GlobalThreadPool();
  return shuffle::RunPeos(*oracle_, values, config, rng);
}

Status ShuffleDpCollector::StreamEncodedBatches(
    const std::vector<uint64_t>& values, Rng* rng,
    const std::function<Status(std::vector<uint64_t>&&)>& sink) const {
  const uint64_t n = values.size();
  const size_t batch_size = std::max<size_t>(1, options_.streaming.batch_size);
  const unsigned bits = oracle_->PackedBits();

  // User reports: encoded batch by batch on the producer side while the
  // consumer counts earlier batches. Seeds derive from the batch start
  // index, so the stream is reproducible for any pool size — and any
  // batch can be replayed verbatim after a crash.
  const uint64_t base_seed = rng->NextU64();
  for (uint64_t lo = 0; lo < n; lo += batch_size) {
    const uint64_t hi = std::min<uint64_t>(n, lo + batch_size);
    Rng batch_rng(base_seed ^ (lo * 0x9E3779B97F4A7C15ULL));
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(
          oracle_->PackOrdinal(oracle_->Encode(values[i], &batch_rng)));
    }
    SHUFFLEDP_RETURN_NOT_OK(sink(std::move(ordinals)));
  }

  // Fake blanket: n_r uniform ordinals, decoded through the same path the
  // PEOS server uses (padding ordinals drop as invalid rows).
  const uint64_t fake_seed = rng->NextU64();
  for (uint64_t lo = 0; lo < plan_.n_r; lo += batch_size) {
    const uint64_t hi = std::min<uint64_t>(plan_.n_r, lo + batch_size);
    Rng batch_rng(fake_seed ^ (lo * 0x9E3779B97F4A7C15ULL + 1));
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(bits >= 64
                             ? batch_rng.NextU64()
                             : batch_rng.UniformU64(uint64_t{1} << bits));
    }
    SHUFFLEDP_RETURN_NOT_OK(sink(std::move(ordinals)));
  }
  return Status::OK();
}

Result<service::RoundResult> ShuffleDpCollector::CollectStreaming(
    const std::vector<uint64_t>& values, Rng* rng) const {
  const uint64_t n = values.size();
  if (n == 0) return Status::InvalidArgument("CollectStreaming: empty dataset");

  service::StreamingOptions stream_opts = options_.streaming;
  stream_opts.pool =
      options_.pool != nullptr ? options_.pool : &GlobalThreadPool();
  service::StreamingCollector collector(*oracle_, stream_opts);

  SHUFFLEDP_RETURN_NOT_OK(StreamEncodedBatches(
      values, rng, [&collector](std::vector<uint64_t>&& batch) {
        return collector.Offer(service::MakeOrdinalBatch(std::move(batch)));
      }));

  return collector.FinishRound(n, plan_.n_r, service::Calibration::kOrdinal);
}

Result<service::RoundResult> ShuffleDpCollector::CollectDistributed(
    const std::vector<uint64_t>& values, Rng* rng,
    service::PartitionRoutingClient* routing,
    service::MergeCoordinator* coordinator, uint64_t round_id) const {
  const uint64_t n = values.size();
  if (n == 0) {
    return Status::InvalidArgument("CollectDistributed: empty dataset");
  }
  if (routing == nullptr || coordinator == nullptr) {
    return Status::InvalidArgument(
        "CollectDistributed: null routing client or coordinator");
  }

  // Same deterministic producer as CollectStreaming, but each batch
  // ships through the routing client instead of an in-process Offer —
  // which is why the loopback e2e can demand bitwise-identical estimates
  // from the two paths.
  uint64_t batch_index = 0;
  SHUFFLEDP_RETURN_NOT_OK(StreamEncodedBatches(
      values, rng,
      [routing, round_id, &batch_index](std::vector<uint64_t>&& batch) {
        return routing->SendBatch(round_id, batch_index++, batch);
      }));

  return coordinator->FinishRound(round_id, n, plan_.n_r,
                                  service::Calibration::kOrdinal);
}

Result<std::vector<double>> ShuffleDpCollector::SimulateCollect(
    const std::vector<uint64_t>& value_counts, uint64_t n, Rng* rng) const {
  if (value_counts.size() != domain_size_) {
    return Status::InvalidArgument("value_counts has wrong domain size");
  }
  // Fake reports reconstruct to uniform ordinal values; their support
  // probability is the oracle's ordinal fake rate.
  ldp::SupportProbs probs = oracle_->support_probs();
  probs.q_fake = oracle_->OrdinalFakeSupportProb();
  auto supports = ldp::FastSimulateSupports(probs, value_counts, n,
                                            plan_.n_r, rng);
  return ldp::CalibrateEstimatesOrdinal(*oracle_, supports, n, plan_.n_r);
}

}  // namespace core
}  // namespace shuffledp
