// One CPU-feature probe and one portable override for every SIMD kernel
// dispatch in the library (Montgomery batch, AES, SHA-256, support
// kernels, P-256).
//
// The probe runs CPUID once per process. SHUFFLEDP_FORCE_PORTABLE=1 is
// parsed once, too: when it is set, KernelCpuFeatures() reports no
// optional feature at all, so every backend's Best*Backend() picks its
// portable tier and every Set*Backend() request for a SIMD tier degrades
// to portable. Each kernel still caches its own backend in a static, so
// the per-call dispatch never re-reads the environment.

#ifndef SHUFFLEDP_UTIL_CPU_FEATURES_H_
#define SHUFFLEDP_UTIL_CPU_FEATURES_H_

namespace shuffledp {

/// Optional x86 instruction-set extensions the kernels dispatch on. All
/// false on other architectures.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512dq = false;
  bool avx512ifma = false;
  bool aes = false;  ///< AES-NI
  bool sha = false;  ///< SHA extensions
};

/// What the host CPU (and OS) supports, probed once.
const CpuFeatures& HostCpuFeatures();

/// True iff SHUFFLEDP_FORCE_PORTABLE is exactly "1" (read once).
bool ForcePortable();

/// The features kernels may use: HostCpuFeatures(), or none at all when
/// ForcePortable().
const CpuFeatures& KernelCpuFeatures();

}  // namespace shuffledp

#endif  // SHUFFLEDP_UTIL_CPU_FEATURES_H_
