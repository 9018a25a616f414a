#include "ldp/local_hash.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dp/amplification.h"
#include "ldp/support_kernels.h"
#include "util/hash.h"
#include "util/math.h"

namespace shuffledp {
namespace ldp {

LocalHash::LocalHash(double eps_l, uint64_t d, uint64_t d_prime,
                     std::string name)
    : name_(std::move(name)), eps_l_(eps_l), d_(d), d_prime_(d_prime) {
  assert(eps_l > 0.0);
  assert(d >= 2);
  assert(d_prime >= 2);
  assert(d_prime <= (uint64_t{1} << 32));
  double e = std::exp(eps_l);
  p_ = e / (e + static_cast<double>(d_prime) - 1.0);
  value_bits_ = static_cast<unsigned>(Log2Exact(NextPow2(d_prime)));
}

Result<LdpReport> LocalHash::UnpackOrdinal(uint64_t ordinal) const {
  LdpReport r;
  r.value = static_cast<uint32_t>(ordinal &
                                  ((uint64_t{1} << value_bits_) - 1));
  r.seed = static_cast<uint32_t>(ordinal >> value_bits_);
  if (r.value >= d_prime_) {
    // Padding ordinals are routine on the PEOS decode path, so the
    // message must fit std::string's inline buffer (no heap allocation).
    // Its length matters too: GCC copies a 10- or 12-byte inline string
    // through overlapping partial stores that stall store-to-load
    // forwarding (~30 ns per padding row); 11 bytes, like GRR's, does not.
    return Status::OutOfRange("LH: padding");
  }
  return r;
}

LdpReport LocalHash::Encode(uint64_t v, Rng* rng) const {
  assert(v < d_);
  LdpReport r;
  r.seed = static_cast<uint32_t>(rng->NextU64());
  uint32_t hashed =
      UniversalHash(v, r.seed, static_cast<uint32_t>(d_prime_));
  if (rng->Bernoulli(p_)) {
    r.value = hashed;
  } else {
    uint64_t other = rng->UniformU64(d_prime_ - 1);
    if (other >= hashed) ++other;
    r.value = static_cast<uint32_t>(other);
  }
  return r;
}

bool LocalHash::Supports(const LdpReport& report, uint64_t v) const {
  return UniversalHash(v, report.seed, static_cast<uint32_t>(d_prime_)) ==
         report.value;
}

void LocalHash::AccumulateSupports(const LdpReport* reports, size_t count,
                                   uint64_t value_lo, uint64_t value_hi,
                                   uint64_t* counts) const {
  if (ActiveSupportBackend() == SupportBackend::kScalar) {
    ScalarFrequencyOracle::AccumulateSupports(reports, count, value_lo,
                                              value_hi, counts);
    return;
  }
  AccumulateLocalHashSupports(reports, count, value_lo, value_hi,
                              static_cast<uint32_t>(d_prime_), counts);
}

uint64_t LocalHash::SupportsMany(const LdpReport* reports, size_t count,
                                 uint64_t v) const {
  if (ActiveSupportBackend() == SupportBackend::kScalar) {
    return ScalarFrequencyOracle::SupportsMany(reports, count, v);
  }
  return CountLocalHashSupports(reports, count, v,
                                static_cast<uint32_t>(d_prime_));
}

LdpReport LocalHash::MakeFakeReport(Rng* rng) const {
  LdpReport r;
  r.seed = static_cast<uint32_t>(rng->NextU64());
  r.value = static_cast<uint32_t>(rng->UniformU64(d_prime_));
  return r;
}

SupportProbs LocalHash::support_probs() const {
  double q = 1.0 / static_cast<double>(d_prime_);
  return SupportProbs{p_, q, q};
}

std::unique_ptr<LocalHash> MakeOlh(double eps_l, uint64_t d) {
  uint64_t d_prime =
      std::max<uint64_t>(2, static_cast<uint64_t>(std::lround(
                                std::exp(eps_l) + 1.0)));
  d_prime = std::min(d_prime, d);  // hashing beyond d wastes budget
  d_prime = std::max<uint64_t>(d_prime, 2);
  return std::make_unique<LocalHash>(eps_l, d, d_prime, "OLH");
}

Result<std::unique_ptr<LocalHash>> MakeSolh(double eps_c, uint64_t n,
                                            uint64_t d, double delta) {
  if (eps_c <= 0.0 || delta <= 0.0) {
    return Status::InvalidArgument("SOLH: eps_c and delta must be positive");
  }
  if (n < 2) return Status::InvalidArgument("SOLH: need n >= 2");
  uint64_t d_prime = dp::OptimalSolhDPrime(eps_c, n, delta);
  return MakeSolhFixedDPrime(eps_c, n, d, d_prime, delta);
}

Result<std::unique_ptr<LocalHash>> MakeSolhFixedDPrime(double eps_c,
                                                       uint64_t n, uint64_t d,
                                                       uint64_t d_prime,
                                                       double delta) {
  if (d_prime < 2) {
    return Status::InvalidArgument("SOLH: d' must be >= 2");
  }
  double eps_l = dp::InverseSolhEpsLocal(eps_c, n, d_prime, delta);
  if (eps_l <= eps_c) {
    // No amplification possible at this d'; run plain LDP at ε_c with the
    // smallest range (the paper's SH fallback behaviour).
    return std::make_unique<LocalHash>(eps_c, d, std::min<uint64_t>(d_prime, 2),
                                       "SOLH");
  }
  return std::make_unique<LocalHash>(eps_l, d, d_prime, "SOLH");
}

Result<std::unique_ptr<LocalHash>> MakePeosSolh(double eps_c, uint64_t n,
                                                uint64_t n_r, uint64_t d,
                                                double delta,
                                                double eps_l_cap) {
  if (n_r == 0) return MakeSolh(eps_c, n, d, delta);
  uint64_t d_prime = dp::PeosOptimalDPrime(eps_c, n, n_r, delta);
  d_prime = std::max<uint64_t>(d_prime, 2);
  // Round up to a power of two so the PEOS ordinal report space is
  // padding-free: a uniform Z_{2^B} fake share then reconstructs to a
  // uniform *valid* report, making the fake blanket exactly Bin(n_r, 1/d')
  // as Corollary 8 assumes (see frequency_oracle.h ordinal codec notes).
  d_prime = NextPow2(d_prime);
  double eps_l = dp::PeosInverseEpsLocal(eps_c, n, n_r, d_prime, delta);
  if (std::isinf(eps_l)) eps_l = eps_l_cap;
  if (eps_l <= eps_c) {
    return std::make_unique<LocalHash>(eps_c, d, 2, "PEOS-SOLH");
  }
  eps_l = std::min(eps_l, eps_l_cap);
  return std::make_unique<LocalHash>(eps_l, d, d_prime, "PEOS-SOLH");
}

}  // namespace ldp
}  // namespace shuffledp
