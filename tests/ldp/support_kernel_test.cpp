// Bitwise cross-check matrix for the bulk support-evaluation kernels
// (ldp/support_kernels.h) against the per-pair reference path:
//
//   backend × d' (2, odd, pow2, non-pow2, large)
//           × batch size (0, 1, lane−1, lane, lane+1, odd, big)
//           × value range (full domain, odd slice [lo, hi))
//           × alignment (reports.data() and data()+1)
//
// plus the 8-byte-key hash specialization pinned against the generic
// XxHash64, SupportModulus::Matches pinned against the `%` operator, and
// a seeded replayable fuzz loop (SHUFFLEDP_FUZZ_SEED /
// SHUFFLEDP_FUZZ_ITERS, same idiom as crypto/montgomery_fuzz_test).

#include "ldp/support_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "ldp/local_hash.h"
#include "util/hash.h"
#include "util/rng.h"

namespace shuffledp {
namespace ldp {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Restores the dispatch state on scope exit so tests compose.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveSupportBackend()) {}
  ~BackendGuard() { SetSupportBackend(saved_); }

 private:
  SupportBackend saved_;
};

std::vector<SupportBackend> KernelBackends() {
  std::vector<SupportBackend> backends = {SupportBackend::kPortable};
  if (SetSupportBackend(SupportBackend::kAvx2) == SupportBackend::kAvx2) {
    backends.push_back(SupportBackend::kAvx2);
  }
  if (SetSupportBackend(SupportBackend::kAvx512) ==
      SupportBackend::kAvx512) {
    backends.push_back(SupportBackend::kAvx512);
  }
  SetSupportBackend(BestSupportBackend());
  return backends;
}

std::vector<LdpReport> RandomReports(size_t n, uint32_t d_prime, Rng* rng) {
  std::vector<LdpReport> reports(n);
  for (auto& r : reports) {
    r.seed = static_cast<uint32_t>(rng->NextU64());
    // Mix honestly-hashed values (< d') with adversarial ones (>= d'),
    // which must never support anything.
    const uint64_t d = d_prime;
    const uint64_t out_of_range[] = {d, d + 1, 2 * d, 0xFFFFFFFFu};
    const uint64_t v = rng->Bernoulli(0.125)
                           ? out_of_range[rng->UniformU64(4)]
                           : rng->UniformU64(d);
    r.value = static_cast<uint32_t>(std::min<uint64_t>(v, 0xFFFFFFFFu));
  }
  return reports;
}

/// Per-pair reference: the generic-hash scalar loop, straight from the
/// pre-kernel aggregation code.
std::vector<uint64_t> ReferenceCounts(const LdpReport* reports, size_t n,
                                      uint64_t lo, uint64_t hi,
                                      uint32_t d_prime) {
  std::vector<uint64_t> counts(hi - lo, 0);
  for (uint64_t v = lo; v < hi; ++v) {
    for (size_t i = 0; i < n; ++i) {
      counts[v - lo] +=
          UniversalHash(v, reports[i].seed, d_prime) == reports[i].value;
    }
  }
  return counts;
}

TEST(SupportKernelTest, Key8HashMatchesGenericXxHash64) {
  Rng rng(0x8b17);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextU64();
    uint64_t seed = rng.NextU64();
    if (i < 64) key = static_cast<uint64_t>(i);  // small keys too
    ASSERT_EQ(XxHash64Key8(key, seed), XxHash64(&key, sizeof(key), seed))
        << "key=" << key << " seed=" << seed;
  }
}

TEST(SupportKernelTest, SupportPredicateMatchesHardwareModulo) {
  const uint32_t divisors[] = {2,  3,   4,   5,    6,    7,    9,
                               16, 19,  28,  29,   127,  128,  129,
                               168, 1024, 3'000'017u, 0x80000000u,
                               0xFFFFFFFFu};
  constexpr uint64_t kMax = ~uint64_t{0};
  Rng rng(0xd1f0);
  for (uint32_t d : divisors) {
    SupportModulus mod(d);
    auto check = [&](uint64_t h, uint64_t y) {
      ASSERT_EQ(mod.Matches(h, y), h % d == y)
          << "d=" << d << " h=" << h << " y=" << y;
    };
    const uint64_t edges[] = {0,
                              1,
                              d - 1,
                              d,
                              static_cast<uint64_t>(d) + 1,
                              static_cast<uint64_t>(d) * d,
                              uint64_t{1} << 32,
                              (uint64_t{1} << 32) - 1,
                              uint64_t{1} << 63,
                              kMax};
    const uint64_t ys[] = {0, d - 1, d, 0xFFFFFFFFu};
    // 2^64 mod d: h = y − wrap makes h − y wrap to a multiple of d.
    const uint64_t wrap = (kMax % d + 1) % d;
    // The one gap below d whose product lands at limit + 1.
    const uint64_t past_limit = d - 1 - kMax % d;
    for (uint64_t y : ys) {
      for (uint64_t h : edges) check(h, y);
      // h < y (including the wrapping multiple) and h = y.
      check(y, y);
      if (y > 0) check(y - 1, y);
      if (y >= wrap) check(y - wrap, y);
      // Small gaps, with both sides of the limit + 1 product.
      for (uint64_t gap = 0; gap < 64; ++gap) check(y + gap, y);
      for (uint64_t gap : {past_limit - 1, past_limit, past_limit + 1,
                           uint64_t{2} * d}) {
        check(y + gap, y);
      }
      // h − y = k·d for the largest k that fits, and its neighbours.
      const uint64_t k = (kMax - y) / d;
      for (uint64_t kk : {k, k - 1}) {
        const uint64_t h = y + kk * d;
        check(h, y);
        check(h - 1, y);
        if (h < kMax) check(h + 1, y);
      }
    }
    for (int i = 0; i < 200000; ++i) {
      const uint64_t h = rng.NextU64();
      check(h, h % d);
      check(h, rng.UniformU64(d));
      check(h, static_cast<uint32_t>(rng.NextU64()));
    }
  }
}

TEST(SupportKernelTest, BackendDPrimeBatchAlignmentCrossCheck) {
  BackendGuard guard;
  Rng rng(0xacc5);
  const uint32_t d_primes[] = {2, 3, 16, 19, 28, 29, 168, 1024, 3'000'017u};
  // Lane width is 4 (AVX2) and the value unroll is 8; cover 0, 1, and
  // the lane boundaries of both, plus odd sizes.
  const size_t batch_sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 257};
  for (SupportBackend backend : KernelBackends()) {
    ASSERT_EQ(SetSupportBackend(backend), backend);
    for (uint32_t d_prime : d_primes) {
      // Keep the evaluated domain small for the huge-d' rows.
      const uint64_t domain = d_prime > 64 ? 48 : 2 * d_prime;
      for (size_t n : batch_sizes) {
        // One extra report so the +1 misalignment stays in bounds.
        auto reports = RandomReports(n + 1, d_prime, &rng);
        for (size_t offset : {size_t{0}, size_t{1}}) {
          const LdpReport* base = reports.data() + offset;
          // Full range and an odd slice.
          const std::pair<uint64_t, uint64_t> ranges[] = {
              {0, domain},
              {domain / 3, domain - domain / 5},
          };
          for (auto [lo, hi] : ranges) {
            if (lo >= hi) continue;
            auto expected = ReferenceCounts(base, n, lo, hi, d_prime);
            std::vector<uint64_t> got(hi - lo, 0);
            AccumulateLocalHashSupports(base, n, lo, hi, d_prime,
                                        got.data());
            ASSERT_EQ(got, expected)
                << SupportBackendName(backend) << " d'=" << d_prime
                << " n=" << n << " offset=" << offset << " [" << lo << ","
                << hi << ")";
            for (uint64_t v = lo; v < hi; ++v) {
              ASSERT_EQ(CountLocalHashSupports(base, n, v, d_prime),
                        expected[v - lo])
                  << SupportBackendName(backend) << " d'=" << d_prime
                  << " n=" << n << " offset=" << offset << " v=" << v;
            }
          }
        }
      }
    }
  }
}

// A report can only have h < y < d' when its hash is below 2^32, which
// random reports never reach: these (value, seed) pairs come from a
// brute-force search over the 2^32 seeds of small values. With
// y = h + (2^64 mod d'), h − y wraps to a multiple of d', so only the
// `h ≥ y` term rejects the pair, in every lane and every scalar tail.
TEST(SupportKernelTest, HashBelowReportValueNeverSupports) {
  BackendGuard guard;
  struct LowHash {
    uint64_t value;
    uint32_t seed;
    uint64_t hash;
  };
  const LowHash lows[] = {{4, 4125953338u, 1753155039u},
                          {5, 2038146429u, 1353910905u},
                          {6, 1545825904u, 32220406u}};
  for (const LowHash& low : lows) {
    ASSERT_EQ(XxHash64Key8(low.value, low.seed), low.hash);
  }
  for (uint32_t d_prime : {0x80000001u, 0xFFFFFFFEu, 0xFFFFFFFFu}) {
    const uint64_t wrap = (~uint64_t{0} % d_prime + 1) % d_prime;
    std::vector<LdpReport> crafted;
    for (const LowHash& low : lows) {
      ASSERT_LT(low.hash + wrap, d_prime);
      crafted.push_back({low.seed, static_cast<uint32_t>(low.hash + wrap)});
      crafted.push_back({low.seed, static_cast<uint32_t>(low.hash)});
    }
    // Cycle them past two AVX-512 report lanes and into the scalar tail.
    std::vector<LdpReport> reports;
    for (size_t i = 0; i < 19; ++i) reports.push_back(crafted[i % 6]);
    const auto expected =
        ReferenceCounts(reports.data(), reports.size(), 0, 48, d_prime);
    for (SupportBackend backend : KernelBackends()) {
      SetSupportBackend(backend);
      std::vector<uint64_t> got(48, 0);
      AccumulateLocalHashSupports(reports.data(), reports.size(), 0, 48,
                                  d_prime, got.data());
      ASSERT_EQ(got, expected)
          << SupportBackendName(backend) << " d'=" << d_prime;
      for (const LowHash& low : lows) {
        ASSERT_EQ(CountLocalHashSupports(reports.data(), reports.size(),
                                         low.value, d_prime),
                  expected[low.value])
            << SupportBackendName(backend) << " d'=" << d_prime
            << " v=" << low.value;
      }
    }
  }
}

TEST(SupportKernelTest, OracleBulkApiMatchesPerPairSupports) {
  BackendGuard guard;
  Rng rng(0x0b5e);
  LocalHash lh(2.0, 96, 19);
  auto reports = RandomReports(300, 19, &rng);
  // Reference through the virtual per-pair path.
  std::vector<uint64_t> expected(96, 0);
  for (uint64_t v = 0; v < 96; ++v) {
    for (const auto& r : reports) expected[v] += lh.Supports(r, v);
  }
  for (SupportBackend backend :
       {SupportBackend::kScalar, SupportBackend::kPortable,
        SupportBackend::kAvx2, SupportBackend::kAvx512}) {
    SetSupportBackend(backend);
    std::vector<uint64_t> got(96, 0);
    lh.AccumulateSupports(reports.data(), reports.size(), 0, 96,
                          got.data());
    ASSERT_EQ(got, expected) << SupportBackendName(ActiveSupportBackend());
    for (uint64_t v = 0; v < 96; ++v) {
      ASSERT_EQ(lh.SupportsMany(reports.data(), reports.size(), v),
                expected[v])
          << SupportBackendName(ActiveSupportBackend()) << " v=" << v;
    }
  }
}

TEST(SupportKernelTest, AccumulatesIntoExistingCounts) {
  BackendGuard guard;
  Rng rng(0xadd5);
  auto reports = RandomReports(64, 16, &rng);
  auto expected = ReferenceCounts(reports.data(), 64, 0, 32, 16);
  for (SupportBackend backend : KernelBackends()) {
    SetSupportBackend(backend);
    std::vector<uint64_t> counts(32, 7);  // pre-existing tallies
    AccumulateLocalHashSupports(reports.data(), 64, 0, 32, 16,
                                counts.data());
    for (size_t i = 0; i < 32; ++i) {
      ASSERT_EQ(counts[i], expected[i] + 7) << "v=" << i;
    }
  }
}

TEST(SupportKernelTest, SetBackendReturnsInstalledBackend) {
  BackendGuard guard;
  EXPECT_EQ(SetSupportBackend(SupportBackend::kPortable),
            SupportBackend::kPortable);
  EXPECT_EQ(SetSupportBackend(SupportBackend::kScalar),
            SupportBackend::kScalar);
  // A SIMD request either installs that backend or falls down the
  // avx512 → avx2 → portable chain — whatever it returns must be what
  // subsequent calls observe.
  SupportBackend got = SetSupportBackend(SupportBackend::kAvx2);
  EXPECT_EQ(got, ActiveSupportBackend());
  EXPECT_TRUE(got == SupportBackend::kAvx2 ||
              got == SupportBackend::kPortable);
  got = SetSupportBackend(SupportBackend::kAvx512);
  EXPECT_EQ(got, ActiveSupportBackend());
  EXPECT_NE(got, SupportBackend::kScalar);
}

// Seeded replayable fuzz loop: random d', batch size, slice, and
// alignment each iteration, cross-checked against the per-pair loop on
// every backend.
TEST(SupportKernelFuzzTest, RandomizedCrossCheck) {
  BackendGuard guard;
  const uint64_t seed = EnvU64("SHUFFLEDP_FUZZ_SEED", 0x5eed2026u);
  const uint64_t iters = EnvU64("SHUFFLEDP_FUZZ_ITERS", 150);
  std::cout << "support-kernel fuzz seed=" << seed << " iters=" << iters
            << " (replay: SHUFFLEDP_FUZZ_SEED=" << seed << ")\n";
  Rng rng(seed);
  const auto backends = KernelBackends();
  for (uint64_t it = 0; it < iters; ++it) {
    const uint32_t d_prime =
        2 + static_cast<uint32_t>(rng.UniformU64(
                rng.Bernoulli(0.2) ? 1'000'000 : 64));
    const size_t n = static_cast<size_t>(rng.UniformU64(400));
    const uint64_t domain = 1 + rng.UniformU64(96);
    uint64_t lo = rng.UniformU64(domain);
    uint64_t hi = lo + 1 + rng.UniformU64(domain - lo);
    const size_t offset = static_cast<size_t>(rng.UniformU64(2));
    auto reports = RandomReports(n + offset, d_prime, &rng);
    const LdpReport* base = reports.data() + offset;
    auto expected = ReferenceCounts(base, n, lo, hi, d_prime);
    for (SupportBackend backend : backends) {
      SetSupportBackend(backend);
      std::vector<uint64_t> got(hi - lo, 0);
      AccumulateLocalHashSupports(base, n, lo, hi, d_prime, got.data());
      ASSERT_EQ(got, expected)
          << "iter=" << it << " backend=" << SupportBackendName(backend)
          << " d'=" << d_prime << " n=" << n << " [" << lo << "," << hi
          << ") offset=" << offset << " seed=" << seed;
      const uint64_t v = lo + rng.UniformU64(hi - lo);
      ASSERT_EQ(CountLocalHashSupports(base, n, v, d_prime),
                expected[v - lo])
          << "iter=" << it << " backend=" << SupportBackendName(backend)
          << " v=" << v << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace ldp
}  // namespace shuffledp
