#include "ldp/fast_sim.h"

#include <cassert>

#include "ldp/estimator.h"

namespace shuffledp {
namespace ldp {

std::vector<uint64_t> FastSimulateSupportsAt(
    const SupportProbs& probs, const std::vector<uint64_t>& value_counts,
    uint64_t n, uint64_t n_fake, const std::vector<uint64_t>& eval_values,
    Rng* rng) {
  std::vector<uint64_t> supports(eval_values.size());
  for (size_t j = 0; j < eval_values.size(); ++j) {
    uint64_t v = eval_values[j];
    assert(v < value_counts.size());
    uint64_t n_v = value_counts[v];
    assert(n_v <= n);
    supports[j] = rng->Binomial(n_v, probs.p_true) +
                  rng->Binomial(n - n_v, probs.q_other) +
                  rng->Binomial(n_fake, probs.q_fake);
  }
  return supports;
}

std::vector<uint64_t> FastSimulateSupports(
    const SupportProbs& probs, const std::vector<uint64_t>& value_counts,
    uint64_t n, uint64_t n_fake, Rng* rng) {
  std::vector<uint64_t> all(value_counts.size());
  for (uint64_t v = 0; v < value_counts.size(); ++v) all[v] = v;
  return FastSimulateSupportsAt(probs, value_counts, n, n_fake, all, rng);
}

std::vector<double> FastSimulateEstimateAt(
    const ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& value_counts, uint64_t n, uint64_t n_fake,
    const std::vector<uint64_t>& eval_values, Rng* rng) {
  auto supports = FastSimulateSupportsAt(oracle.support_probs(), value_counts,
                                         n, n_fake, eval_values, rng);
  return CalibrateEstimates(oracle, supports, n, n_fake);
}

std::vector<uint64_t> FastSimulateUnaryColumns(
    double p, double q, const std::vector<uint64_t>& value_counts, uint64_t n,
    const std::vector<uint64_t>& eval_values, Rng* rng) {
  std::vector<uint64_t> counts(eval_values.size());
  for (size_t j = 0; j < eval_values.size(); ++j) {
    uint64_t v = eval_values[j];
    assert(v < value_counts.size());
    uint64_t n_v = value_counts[v];
    counts[j] = rng->Binomial(n_v, p) + rng->Binomial(n - n_v, q);
  }
  return counts;
}

std::vector<uint64_t> FastSimulateAueColumns(
    double gamma, const std::vector<uint64_t>& value_counts, uint64_t n,
    const std::vector<uint64_t>& eval_values, Rng* rng) {
  std::vector<uint64_t> counts(eval_values.size());
  for (size_t j = 0; j < eval_values.size(); ++j) {
    uint64_t v = eval_values[j];
    assert(v < value_counts.size());
    counts[j] = value_counts[v] + rng->Binomial(n, gamma);
  }
  return counts;
}

}  // namespace ldp
}  // namespace shuffledp
