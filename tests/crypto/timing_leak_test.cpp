// Dudect-style timing-leak smoke test for the constant-time Montgomery
// kernels (CtMulInto / CtMulManyInto / CtModExp / CtModExpManyInto, the
// batched ones as full 8-lane blocks on each Montgomery backend the host
// has: portable, avx2, ifma) and the P-256 scalar multiplies that take
// secret scalars (the comb behind every ECIES encrypt, ScalarMultBatch
// behind every ECIES decrypt), on each P-256 backend the host has.
//
// Method (Reparaz, Balasch, Verbauwhede — "dude, is my code constant
// time?"): measure the same operation over two input classes that a
// leaky implementation would distinguish (fixed vs. fresh-random secret
// exponent, low- vs. high-Hamming-weight exponent), interleaved in a
// seeded random order so drift hits both classes equally, crop the
// upper tail to shed scheduler/interrupt outliers, and compare the
// class means with Welch's t-test. |t| stays small (noise) for
// constant-time code and grows without bound with sample count for
// variable-time code.
//
// Threshold: |t| < 10. Under the null this is a > 9-sigma event per
// round, and each check gets kRounds independent measurement rounds,
// passing if ANY round is below threshold — a genuine leak produces
// |t| in the hundreds consistently, while noise spikes are transient.
// The canary tests at the bottom run the SAME harness against the
// variable-time sliding-window ModExp and the old variable-time width-5
// wNAF point multiply, and assert they FAIL, pinning the harness's
// statistical power so a silent regression in the measurement loop
// cannot fake a pass.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/ec_p256.h"
#include "crypto/montgomery.h"
#include "crypto/secure_random.h"
#include "mont_backends.h"
#include "p256_backends.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace shuffledp {
namespace crypto {
namespace {

inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned aux;
  return __rdtscp(&aux);  // serializes against preceding loads/stores
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Welch's t-statistic between two sample sets.
double WelchT(const std::vector<double>& a, const std::vector<double>& b) {
  auto stats = [](const std::vector<double>& v, double* mean, double* var) {
    double m = 0;
    for (double x : v) m += x;
    m /= static_cast<double>(v.size());
    double s = 0;
    for (double x : v) s += (x - m) * (x - m);
    *mean = m;
    *var = s / static_cast<double>(v.size() - 1);
  };
  double ma, va, mb, vb;
  stats(a, &ma, &va);
  stats(b, &mb, &vb);
  double denom = std::sqrt(va / static_cast<double>(a.size()) +
                           vb / static_cast<double>(b.size()));
  if (denom == 0) return 0;
  return (ma - mb) / denom;
}

// t-statistic after dropping every sample above the pooled p-th
// percentile from both classes (dudect's crop: the upper tail is
// interrupts and frequency shifts, not the operation under test).
double CroppedT(const std::vector<double>& a, const std::vector<double>& b,
                double pct) {
  std::vector<double> pooled;
  pooled.reserve(a.size() + b.size());
  pooled.insert(pooled.end(), a.begin(), a.end());
  pooled.insert(pooled.end(), b.begin(), b.end());
  std::sort(pooled.begin(), pooled.end());
  double cut = pooled[static_cast<size_t>(pct * (pooled.size() - 1))];
  auto crop = [cut](const std::vector<double>& v) {
    std::vector<double> kept;
    kept.reserve(v.size());
    for (double x : v) {
      if (x <= cut) kept.push_back(x);
    }
    return kept;
  };
  std::vector<double> ca = crop(a), cb = crop(b);
  if (ca.size() < 2 || cb.size() < 2) return 0;
  return WelchT(ca, cb);
}

constexpr double kThreshold = 10.0;
constexpr int kRounds = 3;
// Dudect evaluates several crop levels and keeps the most discriminating
// one: tight crops isolate the quiet fast tail (max statistical power
// against a real leak), loose crops keep the bulk (power against leaks
// that only show in slow paths). For constant-time code every level
// stays small.
constexpr double kCropPercentiles[] = {1.0, 0.9, 0.8, 0.7, 0.6, 0.5};

// One measurement round: `op(cls)` runs the operation for class cls
// (inputs must be pre-generated so generation cost is not measured).
// Classes are interleaved in a seeded random order.
template <typename Op>
double MeasureRound(size_t samples_per_class, SecureRandom* rng, Op&& op) {
  std::vector<int> schedule;
  schedule.reserve(2 * samples_per_class);
  for (size_t i = 0; i < samples_per_class; ++i) {
    schedule.push_back(0);
    schedule.push_back(1);
  }
  // Fisher-Yates with the seeded rng: replayable order.
  for (size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng->NextU64() % i]);
  }
  std::vector<double> cls0, cls1;
  cls0.reserve(samples_per_class);
  cls1.reserve(samples_per_class);
  // Warmup: touch both classes so caches/predictors settle.
  for (int i = 0; i < 16; ++i) op(i & 1);
  for (int cls : schedule) {
    uint64_t t0 = Ticks();
    op(cls);
    uint64_t t1 = Ticks();
    (cls == 0 ? cls0 : cls1).push_back(static_cast<double>(t1 - t0));
  }
  double worst = 0;
  for (double pct : kCropPercentiles) {
    worst = std::max(worst, std::fabs(CroppedT(cls0, cls1, pct)));
  }
  return worst;
}

// Runs kRounds independent rounds; returns the smallest |t| seen (the
// pass statistic) and the largest (the canary statistic).
template <typename Op>
void RunRounds(size_t samples_per_class, uint64_t seed, Op&& op,
               double* min_abs_t, double* max_abs_t) {
  SecureRandom rng(seed);
  *min_abs_t = 1e300;
  *max_abs_t = 0;
  for (int r = 0; r < kRounds; ++r) {
    double t = std::fabs(MeasureRound(samples_per_class, &rng, op));
    *min_abs_t = std::min(*min_abs_t, t);
    *max_abs_t = std::max(*max_abs_t, t);
  }
}

// 512-bit modulus / 256-bit exponents: small enough that thousands of
// exponentiations fit in a CI smoke budget, large enough that a
// window-count leak spans dozens of multiplies.
MontgomeryCtx MakeCtx(SecureRandom* rng, size_t bits) {
  BigInt m = BigInt::RandomWithBits(bits, rng);
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  EXPECT_TRUE(ctx.ok());
  return std::move(ctx).value();
}

// The batched checks run one full 8-lane block, so the vector backends'
// 8-lane kernels (AVX2, IFMA) are the code measured, not a portable tail.
constexpr size_t kLanes = MontgomeryCtx::kMaxBatchLanes;

// Runs `check` once per Montgomery backend the host has.
template <typename Check>
void ForEachMontBackend(Check&& check) {
  for (MontBackend backend : AvailableMontBackends()) {
    ScopedMontBackend scoped(backend);
    SCOPED_TRACE(MontBackendName(backend));
    check();
  }
}

// `count` random residues in Montgomery form, one limb vector each.
std::vector<std::vector<uint64_t>> RandomMontLanes(const MontgomeryCtx& ctx,
                                                   size_t count,
                                                   SecureRandom* rng) {
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<std::vector<uint64_t>> lanes(
      count, std::vector<uint64_t>(ctx.limbs()));
  for (auto& lane : lanes) {
    ctx.ToMontInto(BigInt::RandomBelow(ctx.modulus(), rng), lane.data(),
                   &scratch);
  }
  return lanes;
}

// The secret-exponent ladder in its two shapes: the one-lane CtModExp
// entry point, and one 8-lane CtModExpManyInto block on the active
// backend.
class CtLadder {
 public:
  CtLadder(const MontgomeryCtx& ctx, SecureRandom* rng)
      : ctx_(ctx),
        scratch_(ctx),
        base_(BigInt::RandomBelow(ctx.modulus(), rng)),
        lanes_(RandomMontLanes(ctx, kLanes, rng)),
        out_(kLanes, std::vector<uint64_t>(ctx.limbs())) {
    for (size_t l = 0; l < kLanes; ++l) {
      in_[l] = lanes_[l].data();
      outp_[l] = out_[l].data();
    }
  }

  uint64_t Run(size_t k, const BigInt& e, size_t ebits) {
    if (k == 1) return ctx_.CtModExp(base_, e, ebits).ToU64Saturating();
    ctx_.CtModExpManyInto(k, in_, e, ebits, outp_, &scratch_);
    return out_[0][0];
  }

 private:
  const MontgomeryCtx& ctx_;
  MontgomeryCtx::Scratch scratch_;
  BigInt base_;
  std::vector<std::vector<uint64_t>> lanes_, out_;
  const uint64_t* in_[kLanes];
  uint64_t* outp_[kLanes];
};

// Runs `check(k, samples)` for the one-lane CtModExp, then for an 8-lane
// block on every Montgomery backend (fewer samples: each is 8 ladders).
template <typename Check>
void ForEachLadderShape(Check&& check) {
  {
    SCOPED_TRACE("CtModExp, one lane");
    check(size_t{1}, size_t{700});
  }
  ForEachMontBackend([&] { check(kLanes, size_t{300}); });
}

// Class 0: one fixed secret exponent. Class 1: a fresh random exponent
// per sample (pre-generated). A leaky ladder correlates time with the
// exponent's window pattern; a constant-time one cannot.
TEST(TimingLeakTest, CtModExpFixedVsRandomExponent) {
  SecureRandom rng(uint64_t{2026'08'08});
  MontgomeryCtx ctx = MakeCtx(&rng, 512);
  const size_t ebits = 256;
  CtLadder ladder(ctx, &rng);
  BigInt fixed = BigInt::RandomWithBits(ebits, &rng);
  std::vector<BigInt> fresh;
  for (size_t i = 0; i < kRounds * 700 * 2 + 64; ++i) {
    fresh.push_back(BigInt::RandomWithBits(ebits, &rng));
  }
  ForEachLadderShape([&](size_t k, size_t samples) {
    size_t next = 0;
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(samples, uint64_t{11}, [&](int cls) {
      const BigInt& e = cls == 0 ? fixed : fresh[next++ % fresh.size()];
      sink += ladder.Run(k, e, ebits);
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "CtModExp timing depends on the secret exponent, k=" << k
        << " (max |t|=" << max_t << ")";
  });
}

// Extreme Hamming-weight classes: 2^(ebits-1) (every window digit zero
// except the top) vs. all-ones (every digit maximal). The fixed-window
// always-multiply ladder must not care; a square-and-multiply or
// sliding-window ladder differs by ~ebits/2 multiplies.
TEST(TimingLeakTest, CtModExpLowVsHighWeightExponent) {
  SecureRandom rng(uint64_t{77002});
  MontgomeryCtx ctx = MakeCtx(&rng, 512);
  const size_t ebits = 256;
  CtLadder ladder(ctx, &rng);
  BigInt low = BigInt(1).ShiftLeft(ebits - 1);              // weight 1
  BigInt high = BigInt(1).ShiftLeft(ebits).Sub(BigInt(1));  // weight ebits
  ForEachLadderShape([&](size_t k, size_t samples) {
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(samples, uint64_t{12}, [&](int cls) {
      sink += ladder.Run(k, cls == 0 ? low : high, ebits);
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "CtModExp timing depends on exponent weight, k=" << k
        << " (max |t|=" << max_t << ")";
  });
}

// The batched ladder with a shared exponent: lane VALUES differ by
// class (all-zero bases vs. random bases) over one full 8-lane block on
// every backend. Exercises the vector kernels' fixed flow (and the IFMA
// ladder's radix conversions) on skewed operands.
TEST(TimingLeakTest, CtModExpManyOperandClasses) {
  SecureRandom rng(uint64_t{77003});
  MontgomeryCtx ctx = MakeCtx(&rng, 512);
  const size_t n = ctx.limbs();
  const size_t kSamples = 350;
  const size_t ebits = 128;
  BigInt e = BigInt::RandomWithBits(ebits, &rng);
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<std::vector<uint64_t>> zero(kLanes, std::vector<uint64_t>(n));
  auto rand = RandomMontLanes(ctx, kLanes, &rng);
  std::vector<std::vector<uint64_t>> out(kLanes, std::vector<uint64_t>(n));
  std::vector<const uint64_t*> bp(kLanes);
  std::vector<uint64_t*> op(kLanes);
  for (size_t l = 0; l < kLanes; ++l) op[l] = out[l].data();
  ForEachMontBackend([&] {
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{13}, [&](int cls) {
      auto& src = cls == 0 ? zero : rand;
      for (size_t l = 0; l < kLanes; ++l) bp[l] = src[l].data();
      ctx.CtModExpManyInto(kLanes, bp.data(), e, ebits, op.data(),
                           &scratch);
      sink += out[0][0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "CtModExpManyInto timing depends on operand values (max |t|="
        << max_t << ")";
  });
}

// Amplified multiply with all-zero vs. random operands: 64 back-to-back
// CtMulInto calls per sample, then 16 back-to-back 8-lane CtMulManyInto
// calls on every backend. Catches data-dependent final corrections (the
// early-exit compare the ct tier exists to remove).
TEST(TimingLeakTest, CtMulOperandClasses) {
  SecureRandom rng(uint64_t{77004});
  MontgomeryCtx ctx = MakeCtx(&rng, 1024);
  const size_t n = ctx.limbs();
  const size_t kSamples = 700;
  MontgomeryCtx::Scratch scratch(ctx);
  // Both classes use the same buffer layout, one buffer per lane and
  // operand, so only the values differ: the AVX2 tier routes a == b
  // pointer sets to its squaring kernel, and the pointers are public.
  std::vector<std::vector<uint64_t>> zeroa(kLanes, std::vector<uint64_t>(n));
  std::vector<std::vector<uint64_t>> zerob(kLanes, std::vector<uint64_t>(n));
  auto randa = RandomMontLanes(ctx, kLanes, &rng);
  auto randb = RandomMontLanes(ctx, kLanes, &rng);
  std::vector<std::vector<uint64_t>> out(kLanes, std::vector<uint64_t>(n));
  {
    SCOPED_TRACE("CtMulInto, one lane");
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{14}, [&](int cls) {
      const uint64_t* a = cls == 0 ? zeroa[0].data() : randa[0].data();
      const uint64_t* b = cls == 0 ? zerob[0].data() : randb[0].data();
      for (int i = 0; i < 64; ++i) {
        ctx.CtMulInto(a, b, out[0].data(), &scratch);
      }
      sink += out[0][0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "CtMulInto timing depends on operand values (max |t|=" << max_t
        << ")";
  }
  const uint64_t* zpa[kLanes];
  const uint64_t* zpb[kLanes];
  const uint64_t* ap[kLanes];
  const uint64_t* bp[kLanes];
  uint64_t* op[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    zpa[l] = zeroa[l].data();
    zpb[l] = zerob[l].data();
    ap[l] = randa[l].data();
    bp[l] = randb[l].data();
    op[l] = out[l].data();
  }
  ForEachMontBackend([&] {
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples / 2, uint64_t{16}, [&](int cls) {
      for (int i = 0; i < 16; ++i) {
        ctx.CtMulManyInto(kLanes, cls == 0 ? zpa : ap, cls == 0 ? zpb : bp, op,
                          &scratch);
      }
      sink += out[0][0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "CtMulManyInto timing depends on operand values (max |t|="
        << max_t << ")";
  });
}

// ---------------------------------------------------------------------------
// P-256. Scalars are secret in both multiplies: the ephemeral k of every
// ECIES encrypt goes through the comb (P256Precomputed::MultBatch), and
// every shuffler's and the server's long-term key through ScalarMultBatch.
// ---------------------------------------------------------------------------

// A scalar with eight set bits: 56 of its 64 comb digits and all but
// eight of its wNAF digits are zero, so any zero-digit shortcut shows.
Scalar256 SparseScalar() {
  return Scalar256{(1ULL << 3) | (1ULL << 40), (1ULL << 6) | (1ULL << 35),
                   (1ULL << 12) | (1ULL << 42), (1ULL << 8) | (1ULL << 38)};
}

// Weight 1: 2^128, a single nonzero digit in every recoding and half the
// bit length (a variable-time ladder also skips its top 127 doublings).
Scalar256 LowWeightScalar() { return Scalar256{0, 0, 1, 0}; }

std::vector<Scalar256> RandomScalars(size_t count, SecureRandom* rng) {
  std::vector<Scalar256> out;
  for (size_t i = 0; i < count; ++i) out.push_back(P256::RandomScalar(rng));
  return out;
}

// Runs `check` once per P-256 backend the host has.
template <typename Check>
void ForEachP256Backend(Check&& check) {
  for (P256Backend backend : AvailableP256Backends()) {
    ScopedP256Backend scoped(backend);
    SCOPED_TRACE(P256BackendName(backend));
    check(backend);
  }
}

// Class 0: one fixed sparse scalar. Class 1: a fresh random scalar per
// sample. The comb used to skip zero digits, which this detects.
TEST(TimingLeakTest, P256CombFixedVsRandomScalar) {
  SecureRandom rng(uint64_t{77101});
  const P256Precomputed pre(P256::ScalarBaseMult(P256::RandomScalar(&rng)));
  const size_t kSamples = 500;
  const Scalar256 sparse = SparseScalar();
  const std::vector<Scalar256> fresh =
      RandomScalars(kRounds * kSamples * 2 + 64, &rng);
  ForEachP256Backend([&](P256Backend backend) {
    size_t next = 0;
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{21}, [&](int cls) {
      const Scalar256& k =
          cls == 0 ? sparse : fresh[next++ % fresh.size()];
      sink += pre.MultBatch({k})[0].x[0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "comb timing depends on the secret scalar on "
        << P256BackendName(backend) << " (max |t|=" << max_t << ")";
  });
}

// 2^128 (one nonzero comb digit) vs 2^255 - 1 (every digit nonzero).
TEST(TimingLeakTest, P256CombLowVsHighWeightScalar) {
  SecureRandom rng(uint64_t{77102});
  const P256Precomputed pre(P256::ScalarBaseMult(P256::RandomScalar(&rng)));
  const size_t kSamples = 500;
  const Scalar256 low = LowWeightScalar();
  const Scalar256 high = {~0ULL, ~0ULL, ~0ULL, ~0ULL >> 1};
  ForEachP256Backend([&](P256Backend backend) {
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{22}, [&](int cls) {
      sink += pre.MultBatch({cls == 0 ? low : high})[0].x[0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "comb timing depends on scalar weight on "
        << P256BackendName(backend) << " (max |t|=" << max_t << ")";
  });
}

// Eight fixed points (one IFMA vector), as an ECIES decrypt chunk sees
// them: only the key changes between classes.
std::vector<P256Point> DecryptPoints(SecureRandom* rng) {
  std::vector<P256Point> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back(P256::ScalarBaseMult(P256::RandomScalar(rng)));
  }
  return points;
}

TEST(TimingLeakTest, P256ScalarMultBatchFixedVsRandomKey) {
  SecureRandom rng(uint64_t{77103});
  const std::vector<P256Point> points = DecryptPoints(&rng);
  const size_t kSamples = 300;
  const Scalar256 sparse = SparseScalar();
  const std::vector<Scalar256> fresh =
      RandomScalars(kRounds * kSamples * 2 + 64, &rng);
  ForEachP256Backend([&](P256Backend backend) {
    size_t next = 0;
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{23}, [&](int cls) {
      const Scalar256& k =
          cls == 0 ? sparse : fresh[next++ % fresh.size()];
      sink += P256::ScalarMultBatch(k, points)[0].x[0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "ScalarMultBatch timing depends on the secret key on "
        << P256BackendName(backend) << " (max |t|=" << max_t << ")";
  });
}

// 2^128 vs 0x5555...55: weight 1 against weight 128, and one wNAF digit
// against the densest wNAF pattern (a nonzero digit every ~5 bits).
TEST(TimingLeakTest, P256ScalarMultBatchLowVsHighWeightKey) {
  SecureRandom rng(uint64_t{77104});
  const std::vector<P256Point> points = DecryptPoints(&rng);
  const size_t kSamples = 300;
  const Scalar256 low = LowWeightScalar();
  const uint64_t fives = 0x5555555555555555ULL;
  const Scalar256 high = {fives, fives, fives, fives};
  ForEachP256Backend([&](P256Backend backend) {
    volatile uint64_t sink = 0;
    double min_t, max_t;
    RunRounds(kSamples, uint64_t{24}, [&](int cls) {
      sink += P256::ScalarMultBatch(cls == 0 ? low : high, points)[0].x[0];
    }, &min_t, &max_t);
    EXPECT_LT(min_t, kThreshold)
        << "ScalarMultBatch timing depends on key weight on "
        << P256BackendName(backend) << " (max |t|=" << max_t << ")";
  });
}

// CANARY: the variable-time sliding-window ModExp run through the exact
// same harness with the low/high-weight classes MUST flunk — ~128 extra
// window multiplies is an enormous signal. If this test ever passes the
// threshold, the harness has lost its power (broken timer, cropped
// everything, dead-code-eliminated op) and the ct "passes" above are
// meaningless.
TEST(TimingLeakTest, CanaryVariableTimeModExpIsDetected) {
  SecureRandom rng(uint64_t{77005});
  MontgomeryCtx ctx = MakeCtx(&rng, 512);
  const size_t kSamples = 350;
  const size_t ebits = 256;
  BigInt base = BigInt::RandomBelow(ctx.modulus(), &rng);
  BigInt low = BigInt(1).ShiftLeft(ebits - 1);
  BigInt high = BigInt(1).ShiftLeft(ebits).Sub(BigInt(1));
  volatile uint64_t sink = 0;
  double min_t, max_t;
  RunRounds(kSamples, uint64_t{15}, [&](int cls) {
    sink += ctx.ModExp(base, cls == 0 ? low : high).ToU64Saturating();
  }, &min_t, &max_t);
  EXPECT_GT(max_t, kThreshold)
      << "harness failed to detect a deliberately variable-time ladder "
         "(max |t|=" << max_t << ", min |t|=" << min_t << ")";
}

// The variable-time width-5 wNAF that ScalarMultBatch ran before the
// fixed-window rewrite, kept only here as the P-256 canary. Digits are
// zero or odd in [-15, 15] (little-endian); returns the digit count.
int WnafRecode(const Scalar256& k, int8_t* digits) {
  uint64_t x[5] = {k[0], k[1], k[2], k[3], 0};
  int len = 0;
  auto is_zero = [&x] { return (x[0] | x[1] | x[2] | x[3] | x[4]) == 0; };
  while (!is_zero()) {
    int8_t d = 0;
    if (x[0] & 1) {
      int v = static_cast<int>(x[0] & 31);
      if (v >= 16) v -= 32;
      d = static_cast<int8_t>(v);
      if (v > 0) {
        uint64_t borrow = static_cast<uint64_t>(v);  // x -= v
        for (int i = 0; i < 5 && borrow; ++i) {
          const uint64_t prev = x[i];
          x[i] -= borrow;
          borrow = x[i] > prev ? 1 : 0;
        }
      } else {
        uint64_t carry = static_cast<uint64_t>(-v);  // x += -v
        for (int i = 0; i < 5 && carry; ++i) {
          x[i] += carry;
          carry = x[i] < carry ? 1 : 0;
        }
      }
    }
    digits[len++] = d;
    for (int i = 0; i < 4; ++i) x[i] = (x[i] >> 1) | (x[i + 1] << 63);
    x[4] >>= 1;
  }
  return len;
}

// p - y for 0 < y < p: the affine negation of a point.
Scalar256 FieldNegate(const Scalar256& y) {
  constexpr Scalar256 kFieldP = {0xFFFFFFFFFFFFFFFFULL, 0x00000000FFFFFFFFULL,
                                 0x0000000000000000ULL, 0xFFFFFFFF00000001ULL};
  Scalar256 out;
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(kFieldP[i]) - y[i] - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return out;
}

// k * P by the wNAF above: a doubling per digit, an addition per nonzero
// digit, built on the public affine P256::Add.
P256Point WnafScalarMult(const Scalar256& k, const P256Point& p) {
  int8_t digits[260];
  const int len = WnafRecode(k, digits);
  P256Point odd[8];  // {1, 3, ..., 15} P
  odd[0] = p;
  const P256Point p2 = P256::Add(p, p);
  for (int m = 1; m < 8; ++m) odd[m] = P256::Add(odd[m - 1], p2);
  P256Point acc;  // infinity
  for (int j = len - 1; j >= 0; --j) {
    acc = P256::Add(acc, acc);
    const int d = digits[j];
    if (d > 0) {
      acc = P256::Add(acc, odd[(d - 1) >> 1]);
    } else if (d < 0) {
      P256Point e = odd[(-d - 1) >> 1];
      e.y = FieldNegate(e.y);
      acc = P256::Add(acc, e);
    }
  }
  return acc;
}

// CANARY: the old variable-time wNAF through the same harness, with the
// ScalarMultBatch weight classes, MUST flunk: ~130 point operations
// against ~300. If it ever passes, the P-256 ct passes above
// are meaningless.
TEST(TimingLeakTest, CanaryVariableTimeWnafIsDetected) {
  SecureRandom rng(uint64_t{77105});
  const P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&rng));
  const Scalar256 low = LowWeightScalar();
  const uint64_t fives = 0x5555555555555555ULL;
  const Scalar256 high = {fives, fives, fives, fives};
  ASSERT_EQ(WnafScalarMult(high, p), P256::ScalarMultReference(high, p));
  const size_t kSamples = 150;
  volatile uint64_t sink = 0;
  double min_t, max_t;
  RunRounds(kSamples, uint64_t{25}, [&](int cls) {
    sink += WnafScalarMult(cls == 0 ? low : high, p).x[0];
  }, &min_t, &max_t);
  EXPECT_GT(max_t, kThreshold)
      << "harness failed to detect the variable-time wNAF (max |t|="
      << max_t << ", min |t|=" << min_t << ")";
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
