// The one CPU-feature probe and SHUFFLEDP_FORCE_PORTABLE override behind
// every SIMD kernel dispatch. The first test prints which backend each
// kernel selected, so every CI leg's log shows whether the SIMD
// cross-checks ran or skipped there.

#include "util/cpu_features.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ec_p256.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"
#include "ldp/support_kernels.h"

extern char** environ;

namespace shuffledp {
namespace {

TEST(CpuFeaturesTest, PrintsSelectedBackends) {
  const CpuFeatures& host = HostCpuFeatures();
  std::printf(
      "host: avx2=%d avx512f=%d avx512dq=%d avx512ifma=%d aes=%d sha=%d\n"
      "SHUFFLEDP_FORCE_PORTABLE=%d\n"
      "backends: mont=%s aes=%s sha=%s support=%s p256=%s\n",
      host.avx2, host.avx512f, host.avx512dq, host.avx512ifma, host.aes,
      host.sha, ForcePortable(),
      crypto::MontBackendName(crypto::ActiveMontBackend()),
      crypto::AesBackendName(crypto::ActiveAesBackend()),
      crypto::ShaBackendName(crypto::ActiveShaBackend()),
      ldp::SupportBackendName(ldp::ActiveSupportBackend()),
      crypto::P256BackendName(crypto::ActiveP256Backend()));
}

TEST(CpuFeaturesTest, ProbeIsStableAndKernelFeaturesFollowOverride) {
  EXPECT_EQ(&HostCpuFeatures(), &HostCpuFeatures());
  const CpuFeatures& kernel = KernelCpuFeatures();
  const CpuFeatures& host = HostCpuFeatures();
  if (ForcePortable()) {
    EXPECT_FALSE(kernel.avx2 || kernel.avx512f || kernel.avx512dq ||
                 kernel.avx512ifma || kernel.aes || kernel.sha);
  } else {
    EXPECT_EQ(&kernel, &host);
  }
  // AVX-512 implies AVX2 on every CPU that has shipped it.
  if (host.avx512f) {
    EXPECT_TRUE(host.avx2);
  }
}

TEST(CpuFeaturesTest, BestBackendsFollowKernelFeatures) {
  const CpuFeatures& cpu = KernelCpuFeatures();
  const crypto::MontBackend mont = crypto::BestMontBackend();
  if (cpu.avx2 && cpu.avx512f && cpu.avx512ifma) {
    EXPECT_EQ(mont, crypto::MontBackend::kIfma);
  } else {
    EXPECT_EQ(mont, cpu.avx2 ? crypto::MontBackend::kAvx2
                             : crypto::MontBackend::kPortable);
  }
  EXPECT_EQ(crypto::BestAesBackend() == crypto::AesBackend::kAesNi, cpu.aes);
  EXPECT_EQ(crypto::BestShaBackend() == crypto::ShaBackend::kShaNi, cpu.sha);
  EXPECT_EQ(crypto::BestP256Backend() == crypto::P256Backend::kIfma,
            cpu.avx512f && cpu.avx512ifma);
  if (std::getenv("SHUFFLEDP_SUPPORT_BACKEND") == nullptr) {
    const ldp::SupportBackend support = ldp::BestSupportBackend();
    if (cpu.avx512f && cpu.avx512dq) {
      EXPECT_EQ(support, ldp::SupportBackend::kAvx512);
    } else {
      EXPECT_EQ(support, cpu.avx2 ? ldp::SupportBackend::kAvx2
                                  : ldp::SupportBackend::kPortable);
    }
  }
}

// Checked in this process when SHUFFLEDP_FORCE_PORTABLE=1 is already set
// (the CI portable leg); otherwise the test re-runs itself in a child
// process with the variable set, since every backend reads it only once.
TEST(CpuFeaturesTest, ForcePortablePinsAllFiveBackends) {
  if (!ForcePortable()) {
    std::vector<std::string> env_strings = {"SHUFFLEDP_FORCE_PORTABLE=1"};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "SHUFFLEDP_FORCE_PORTABLE=", 25) == 0) continue;
      if (std::strncmp(*e, "SHUFFLEDP_SUPPORT_BACKEND=", 26) == 0) continue;
      env_strings.push_back(*e);
    }
    std::vector<char*> env;
    for (std::string& s : env_strings) env.push_back(&s[0]);
    env.push_back(nullptr);
    std::string filter =
        "--gtest_filter=CpuFeaturesTest.ForcePortablePinsAllFiveBackends";
    char exe[] = "/proc/self/exe";
    char* argv[] = {exe, &filter[0], nullptr};
    std::fflush(nullptr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      execve(exe, argv, env.data());
      _exit(127);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "child run with SHUFFLEDP_FORCE_PORTABLE=1 failed";
    return;
  }
  EXPECT_EQ(crypto::ActiveMontBackend(), crypto::MontBackend::kPortable);
  EXPECT_EQ(crypto::ActiveAesBackend(), crypto::AesBackend::kPortable);
  EXPECT_EQ(crypto::ActiveShaBackend(), crypto::ShaBackend::kPortable);
  if (std::getenv("SHUFFLEDP_SUPPORT_BACKEND") == nullptr) {
    EXPECT_EQ(ldp::ActiveSupportBackend(), ldp::SupportBackend::kPortable);
  }
  EXPECT_EQ(crypto::ActiveP256Backend(), crypto::P256Backend::kPortable);
  // A SIMD request degrades to portable too.
  EXPECT_EQ(crypto::SetMontBackend(crypto::MontBackend::kAvx2),
            crypto::MontBackend::kPortable);
  EXPECT_EQ(crypto::SetMontBackend(crypto::MontBackend::kIfma),
            crypto::MontBackend::kPortable);
  EXPECT_EQ(ldp::SetSupportBackend(ldp::SupportBackend::kAvx512),
            ldp::SupportBackend::kPortable);
  EXPECT_EQ(crypto::SetP256Backend(crypto::P256Backend::kIfma),
            crypto::P256Backend::kPortable);
  crypto::SetAesBackend(crypto::AesBackend::kAesNi);
  EXPECT_EQ(crypto::ActiveAesBackend(), crypto::AesBackend::kPortable);
  crypto::SetShaBackend(crypto::ShaBackend::kShaNi);
  EXPECT_EQ(crypto::ActiveShaBackend(), crypto::ShaBackend::kPortable);
}

}  // namespace
}  // namespace shuffledp
