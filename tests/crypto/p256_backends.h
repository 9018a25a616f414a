// Test helper: the P-256 backends this host can run, for tests that must
// hold on every backend (golden pins, cross-checks, timing checks).

#ifndef SHUFFLEDP_TESTS_CRYPTO_P256_BACKENDS_H_
#define SHUFFLEDP_TESTS_CRYPTO_P256_BACKENDS_H_

#include <vector>

#include "crypto/ec_p256.h"

namespace shuffledp {
namespace crypto {

/// kPortable, then kIfma when the host (and SHUFFLEDP_FORCE_PORTABLE)
/// allows it. Leaves the active backend as it found it.
inline std::vector<P256Backend> AvailableP256Backends() {
  std::vector<P256Backend> backends = {P256Backend::kPortable};
  const P256Backend saved = ActiveP256Backend();
  if (SetP256Backend(P256Backend::kIfma) == P256Backend::kIfma) {
    backends.push_back(P256Backend::kIfma);
  }
  SetP256Backend(saved);
  return backends;
}

/// Installs a backend for one scope and restores the previous one.
class ScopedP256Backend {
 public:
  explicit ScopedP256Backend(P256Backend backend)
      : saved_(ActiveP256Backend()) {
    SetP256Backend(backend);
  }
  ~ScopedP256Backend() { SetP256Backend(saved_); }
  ScopedP256Backend(const ScopedP256Backend&) = delete;
  ScopedP256Backend& operator=(const ScopedP256Backend&) = delete;

 private:
  P256Backend saved_;
};

}  // namespace crypto
}  // namespace shuffledp

#endif  // SHUFFLEDP_TESTS_CRYPTO_P256_BACKENDS_H_
