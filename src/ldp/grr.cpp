#include "ldp/grr.h"

#include <cassert>
#include <cmath>

#include "util/math.h"

namespace shuffledp {
namespace ldp {

Grr::Grr(double eps_l, uint64_t d) : eps_l_(eps_l), d_(d) {
  assert(eps_l > 0.0);
  assert(d >= 2);
  double e = std::exp(eps_l);
  p_ = e / (e + static_cast<double>(d) - 1.0);
  q_ = 1.0 / (e + static_cast<double>(d) - 1.0);
  packed_bits_ = static_cast<unsigned>(Log2Exact(NextPow2(d)));
  if (packed_bits_ == 0) packed_bits_ = 1;
}

Result<LdpReport> Grr::UnpackOrdinal(uint64_t ordinal) const {
  if (ordinal >= d_) {
    return Status::OutOfRange("GRR padding");  // fits the inline buffer
  }
  LdpReport r;
  r.value = static_cast<uint32_t>(ordinal);
  return r;
}

LdpReport Grr::Encode(uint64_t v, Rng* rng) const {
  assert(v < d_);
  LdpReport r;
  if (rng->Bernoulli(p_)) {
    r.value = static_cast<uint32_t>(v);
  } else {
    // Uniform over the d−1 values other than v.
    uint64_t other = rng->UniformU64(d_ - 1);
    if (other >= v) ++other;
    r.value = static_cast<uint32_t>(other);
  }
  return r;
}

bool Grr::Supports(const LdpReport& report, uint64_t v) const {
  return report.value == v;
}

LdpReport Grr::MakeFakeReport(Rng* rng) const {
  LdpReport r;
  r.value = static_cast<uint32_t>(rng->UniformU64(d_));
  return r;
}

SupportProbs Grr::support_probs() const {
  return SupportProbs{p_, q_, 1.0 / static_cast<double>(d_)};
}

}  // namespace ldp
}  // namespace shuffledp
