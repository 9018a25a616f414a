#include "util/cpu_features.h"

#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SHUFFLEDP_CPUID_AVAILABLE 1
#endif

namespace shuffledp {

namespace {

CpuFeatures Probe() {
  CpuFeatures f;
#ifdef SHUFFLEDP_CPUID_AVAILABLE
  // __builtin_cpu_supports also checks that the OS saves the YMM/ZMM
  // state (XCR0), which a raw CPUID bit does not.
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512dq = __builtin_cpu_supports("avx512dq");
  f.avx512ifma = __builtin_cpu_supports("avx512ifma");
  f.aes = __builtin_cpu_supports("aes");
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.sha = (ebx & (1u << 29)) != 0;  // CPUID.(7,0):EBX.SHA
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

bool ForcePortable() {
  static const bool force = [] {
    const char* v = std::getenv("SHUFFLEDP_FORCE_PORTABLE");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return force;
}

const CpuFeatures& KernelCpuFeatures() {
  static const CpuFeatures none;
  return ForcePortable() ? none : HostCpuFeatures();
}

}  // namespace shuffledp
