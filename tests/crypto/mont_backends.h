// Test helper: the Montgomery batch-kernel backends this host can run,
// for tests that must hold on every backend (golden pins, cross-checks,
// timing checks).

#ifndef SHUFFLEDP_TESTS_CRYPTO_MONT_BACKENDS_H_
#define SHUFFLEDP_TESTS_CRYPTO_MONT_BACKENDS_H_

#include <vector>

#include "crypto/montgomery.h"

namespace shuffledp {
namespace crypto {

/// kPortable, then kAvx2 and kIfma as far as the host (and
/// SHUFFLEDP_FORCE_PORTABLE) allows. Leaves the active backend as it
/// found it.
inline std::vector<MontBackend> AvailableMontBackends() {
  std::vector<MontBackend> backends = {MontBackend::kPortable};
  const MontBackend saved = ActiveMontBackend();
  for (MontBackend b : {MontBackend::kAvx2, MontBackend::kIfma}) {
    if (SetMontBackend(b) == b) backends.push_back(b);
  }
  SetMontBackend(saved);
  return backends;
}

/// Installs a backend for one scope and restores the previous one.
class ScopedMontBackend {
 public:
  explicit ScopedMontBackend(MontBackend backend)
      : saved_(ActiveMontBackend()) {
    SetMontBackend(backend);
  }
  ~ScopedMontBackend() { SetMontBackend(saved_); }
  ScopedMontBackend(const ScopedMontBackend&) = delete;
  ScopedMontBackend& operator=(const ScopedMontBackend&) = delete;

 private:
  MontBackend saved_;
};

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_TESTS_CRYPTO_MONT_BACKENDS_H_
