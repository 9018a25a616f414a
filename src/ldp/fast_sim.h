// Fast aggregate simulation for utility experiments (DESIGN.md §5).
//
// For utility benchmarks only the server-side aggregate matters, and for
// every oracle in this library the per-value support count is a sum of
// independent Bernoullis whose rates depend only on whether the reporting
// user holds that value:
//
//   support(v) ~ Bin(n_v, p) + Bin(n − n_v, q) + Bin(n_r, q_f)
//
// Drawing these Binomials directly is statistically exact for the marginal
// distribution of each estimate — and hence for E[MSE], which only depends
// on marginals — while reducing the cost from O(n·d) hash evaluations to
// O(d) Binomial draws. Tests verify agreement with the exact per-user
// pipeline (tests/ldp/fast_sim_agreement_test.cpp).

#ifndef SHUFFLEDP_LDP_FAST_SIM_H_
#define SHUFFLEDP_LDP_FAST_SIM_H_

#include <cstdint>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "util/rng.h"

namespace shuffledp {
namespace ldp {

/// Draws simulated support counts for each value of the full domain given
/// the true per-value user counts. `n` must equal the sum of
/// `value_counts`; `n_fake` adds the PEOS blanket reports.
std::vector<uint64_t> FastSimulateSupports(
    const SupportProbs& probs, const std::vector<uint64_t>& value_counts,
    uint64_t n, uint64_t n_fake, Rng* rng);

/// Same, restricted to `eval_values` (returns one count per entry).
std::vector<uint64_t> FastSimulateSupportsAt(
    const SupportProbs& probs, const std::vector<uint64_t>& value_counts,
    uint64_t n, uint64_t n_fake, const std::vector<uint64_t>& eval_values,
    Rng* rng);

/// Fast estimate at a subset of domain points: simulate supports, then
/// apply the generalized calibration (see estimator.h).
std::vector<double> FastSimulateEstimateAt(
    const ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& value_counts, uint64_t n, uint64_t n_fake,
    const std::vector<uint64_t>& eval_values, Rng* rng);

/// Fast column-count simulation for unary encodings:
/// count(c) ~ Bin(n_c, p) + Bin(n − n_c, q), evaluated at `eval_values`.
std::vector<uint64_t> FastSimulateUnaryColumns(
    double p, double q, const std::vector<uint64_t>& value_counts, uint64_t n,
    const std::vector<uint64_t>& eval_values, Rng* rng);

/// Fast column-count simulation for AUE: count(c) ~ n_c + Bin(n, γ).
std::vector<uint64_t> FastSimulateAueColumns(
    double gamma, const std::vector<uint64_t>& value_counts, uint64_t n,
    const std::vector<uint64_t>& eval_values, Rng* rng);

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_FAST_SIM_H_
