// Microbenchmarks (google-benchmark) for every cryptographic and
// mechanism primitive on the PEOS / SS critical paths — the per-operation
// numbers behind Table III.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "crypto/aes.h"
#include "crypto/bigint.h"
#include "crypto/ecies.h"
#include "crypto/montgomery.h"
#include "crypto/paillier.h"
#include "crypto/secret_sharing.h"
#include "crypto/secure_random.h"
#include "crypto/sha256.h"
#include "ldp/grr.h"
#include "ldp/hadamard.h"
#include "ldp/local_hash.h"
#include "ldp/support_kernels.h"
#include "ldp/wire.h"
#include "service/partition.h"
#include "service/transport.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace shuffledp;
using namespace shuffledp::crypto;

SecureRandom& Srng() {
  static SecureRandom* rng = new SecureRandom(uint64_t{1});
  return *rng;
}

void BM_XxHash64_8B(benchmark::State& state) {
  uint64_t key = 0x1234567890ABCDEFULL;
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(XxHash64(&key, sizeof(key), seed++));
  }
}
BENCHMARK(BM_XxHash64_8B);

void BM_Sha256_64B(benchmark::State& state) {
  Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_64B_Portable(benchmark::State& state) {
  SetShaBackend(ShaBackend::kPortable);
  Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  SetShaBackend(BestShaBackend());
}
BENCHMARK(BM_Sha256_64B_Portable);

void BM_Aes128_EncryptBlock(benchmark::State& state) {
  Aes128 aes(std::array<uint8_t, 16>{});
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes128_EncryptBlock);

void BM_Aes128_EncryptBlock_Portable(benchmark::State& state) {
  SetAesBackend(AesBackend::kPortable);
  Aes128 aes(std::array<uint8_t, 16>{});
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.EncryptBlock(block, block);
    benchmark::DoNotOptimize(block);
  }
  SetAesBackend(BestAesBackend());
}
BENCHMARK(BM_Aes128_EncryptBlock_Portable);

void BM_Aes128_Ctr4KiB(benchmark::State& state) {
  std::array<uint8_t, 16> key{};
  std::array<uint8_t, 12> nonce{};
  Bytes data(4096, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AesCtrCrypt(key, nonce, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Aes128_Ctr4KiB);

void BM_BigInt_ModMul(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = BigInt::RandomWithBits(bits, &Srng());
  BigInt a = BigInt::RandomBelow(m, &Srng());
  BigInt b = BigInt::RandomBelow(m, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ModMul(b, m));
  }
}
BENCHMARK(BM_BigInt_ModMul)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_BigInt_ModExp(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = BigInt::RandomWithBits(bits, &Srng());
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  BigInt a = BigInt::RandomBelow(m, &Srng());
  BigInt e = BigInt::RandomWithBits(bits / 2, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ModExp(e, m));
  }
}
BENCHMARK(BM_BigInt_ModExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

struct PaillierFixture {
  PaillierKeyPair kp;
  RandomizerPool* pool;
  PaillierFixture() {
    auto k = PaillierGenerateKeyPair(1024, &Srng());
    kp = std::move(k).value();
    pool = new RandomizerPool(kp.pub, 16, &Srng());
  }
};

PaillierFixture& Paillier() {
  static PaillierFixture* f = new PaillierFixture();
  return *f;
}

void BM_Paillier_EncryptExact(benchmark::State& state) {
  auto& f = Paillier();
  uint64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.pub.EncryptU64(m++, &Srng()));
  }
}
BENCHMARK(BM_Paillier_EncryptExact)->Unit(benchmark::kMillisecond);

void BM_Paillier_EncryptPooled(benchmark::State& state) {
  auto& f = Paillier();
  uint64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.pool->EncryptFastU64(m++, &Srng()));
  }
}
BENCHMARK(BM_Paillier_EncryptPooled);

void BM_Paillier_Decrypt(benchmark::State& state) {
  auto& f = Paillier();
  auto c = f.kp.pub.EncryptU64(123456, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.priv.Decrypt(*c));
  }
}
BENCHMARK(BM_Paillier_Decrypt)->Unit(benchmark::kMillisecond);

void BM_Paillier_HomomorphicAdd(benchmark::State& state) {
  auto& f = Paillier();
  auto c1 = f.kp.pub.EncryptU64(1, &Srng());
  auto c2 = f.kp.pub.EncryptU64(2, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.pub.Add(*c1, *c2));
  }
}
BENCHMARK(BM_Paillier_HomomorphicAdd);

void BM_Paillier_EncryptFixedBase(benchmark::State& state) {
  // DJN short-exponent fixed-base randomizers (fresh mask per call).
  auto& f = Paillier();
  RandomizerPool pool(f.kp.pub, 2, &Srng(),
                      RandomizerPool::Mode::kFixedBase);
  uint64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.EncryptFastU64(m++, &Srng()));
  }
}
BENCHMARK(BM_Paillier_EncryptFixedBase)->Unit(benchmark::kMicrosecond);

// The 64-entry kPairwise pool PEOS builds each round (1024-bit N): the
// N-th powers in 8-lane batches, inline (arg 0) or on a 4-worker pool.
// One build takes 0.1-0.2 s, so the default minimum time would average
// only ~3 builds; the 4-worker row swings with scheduler noise.
void BM_RandomizerPool_Build(benchmark::State& state) {
  auto& f = Paillier();
  const unsigned workers = static_cast<unsigned>(state.range(0));
  std::unique_ptr<ThreadPool> fanout;
  if (workers > 0) fanout = std::make_unique<ThreadPool>(workers);
  for (auto _ : state) {
    RandomizerPool pool(f.kp.pub, 64, &Srng(),
                        RandomizerPool::Mode::kPairwise, fanout.get());
    benchmark::DoNotOptimize(pool.pairwise_masks_mont().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RandomizerPool_Build)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

// The serial build the batched one replaced: 64 Encrypt(0) + ToMontInto.
void BM_RandomizerPool_Build_Reference(benchmark::State& state) {
  auto& f = Paillier();
  const MontgomeryCtx& ctx = *f.kp.pub.n2_ctx();
  MontgomeryCtx::Scratch scratch(ctx);
  std::vector<std::vector<uint64_t>> pool(64,
                                          std::vector<uint64_t>(ctx.limbs()));
  for (auto _ : state) {
    for (std::vector<uint64_t>& entry : pool) {
      auto enc_zero = f.kp.pub.Encrypt(BigInt(), &Srng());
      ctx.ToMontInto(enc_zero->value, entry.data(), &scratch);
    }
    benchmark::DoNotOptimize(pool.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RandomizerPool_Build_Reference)->Unit(benchmark::kMillisecond);

void BM_Paillier_DecryptPacked(benchmark::State& state) {
  // Packed share recovery at the PEOS Table-III layout (SOLH d'=16:
  // ell = 36, r = 3: slot = 39); per-row cost = time / items.
  auto& f = Paillier();
  const unsigned ell = 36, slot_bits = 39;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const size_t count = f.kp.priv.PackedSlotCapacity(slot_bits);
  std::vector<PaillierCiphertext> cs(count);
  for (size_t i = 0; i < count; ++i) {
    cs[i] = *f.kp.pub.EncryptU64((0x9E3779B97F4A7C15ULL * i) & mask,
                                 &Srng());
  }
  std::vector<uint64_t> out(count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.priv.DecryptPackedMod2Ell(
        cs.data(), count, slot_bits, ell, out.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_Paillier_DecryptPacked)->Unit(benchmark::kMillisecond);

void BM_Mont_MulRaw(benchmark::State& state) {
  // One fused-CIOS Montgomery multiply on the allocation-free kernel.
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = BigInt::RandomWithBits(bits, &Srng());
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  MontgomeryCtx::Scratch scratch(*ctx);
  const size_t n = ctx->limbs();
  std::vector<uint64_t> a(n), out(n);
  ctx->ToMontInto(BigInt::RandomBelow(m, &Srng()), a.data(), &scratch);
  out = a;
  for (auto _ : state) {
    ctx->MulInto(out.data(), a.data(), out.data(), &scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Mont_MulRaw)->Arg(1024)->Arg(2048)->Arg(3072);

void BM_Mont_SqrRaw(benchmark::State& state) {
  // The dedicated squaring kernel (the modexp ladder's dominant op).
  const size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = BigInt::RandomWithBits(bits, &Srng());
  if (!m.IsOdd()) m = m.Add(BigInt(1));
  auto ctx = MontgomeryCtx::Create(m);
  MontgomeryCtx::Scratch scratch(*ctx);
  const size_t n = ctx->limbs();
  std::vector<uint64_t> out(n);
  ctx->ToMontInto(BigInt::RandomBelow(m, &Srng()), out.data(), &scratch);
  for (auto _ : state) {
    ctx->SqrInto(out.data(), out.data(), &scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Mont_SqrRaw)->Arg(1024)->Arg(2048)->Arg(3072);

// --- Interleaved batch kernels vs the scalar rows above ---------------
// Per-lane cost is time/items (items = iterations * k), so these rows
// divide directly against BM_Mont_MulRaw/SqrRaw at the same width.

struct BatchBench {
  MontgomeryCtx ctx;
  MontgomeryCtx::Scratch scratch;
  std::vector<std::vector<uint64_t>> lanes;
  std::vector<const uint64_t*> in;
  std::vector<uint64_t*> out;

  BatchBench(size_t bits, size_t k)
      : ctx(MakeCtx(bits)), scratch(ctx) {
    scratch.EnsureLanes(ctx, std::min(k, MontgomeryCtx::kMaxBatchLanes));
    const size_t n = ctx.limbs();
    lanes.assign(k, std::vector<uint64_t>(n));
    for (auto& lane : lanes) {
      ctx.ToMontInto(BigInt::RandomBelow(ctx.modulus(), &Srng()),
                     lane.data(), &scratch);
    }
    for (auto& lane : lanes) {
      in.push_back(lane.data());
      out.push_back(lane.data());  // in-place, the production shape
    }
  }

  static MontgomeryCtx MakeCtx(size_t bits) {
    BigInt m = BigInt::RandomWithBits(bits, &Srng());
    if (!m.IsOdd()) m = m.Add(BigInt(1));
    return std::move(MontgomeryCtx::Create(m)).value();
  }
};

void RunMulBatch(benchmark::State& state, MontBackend backend) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  // SetMontBackend returns the backend actually selected, not the previous
  // one — capture the active backend first or the restore below is a no-op
  // and a portable-pinned row poisons every later benchmark in the process.
  const MontBackend prev = ActiveMontBackend();
  if (SetMontBackend(backend) != backend) {
    SetMontBackend(prev);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  BatchBench b(bits, k);
  for (auto _ : state) {
    b.ctx.MulManyInto(k, b.in.data(), b.in.data(), b.out.data(),
                      &b.scratch);
    benchmark::DoNotOptimize(b.lanes[0].data());
  }
  SetMontBackend(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}

void RunSqrBatch(benchmark::State& state, MontBackend backend) {
  const size_t bits = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const MontBackend prev = ActiveMontBackend();  // see RunMulBatch
  if (SetMontBackend(backend) != backend) {
    SetMontBackend(prev);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  BatchBench b(bits, k);
  for (auto _ : state) {
    b.ctx.SqrManyInto(k, b.in.data(), b.out.data(), &b.scratch);
    benchmark::DoNotOptimize(b.lanes[0].data());
  }
  SetMontBackend(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}

void BM_Mont_MulBatch(benchmark::State& state) {
  RunMulBatch(state, BestMontBackend());
}
BENCHMARK(BM_Mont_MulBatch)
    ->Args({1024, 4})->Args({1024, 8})->Args({2048, 4})->Args({2048, 8});

void BM_Mont_MulBatch_Avx2(benchmark::State& state) {
  RunMulBatch(state, MontBackend::kAvx2);
}
BENCHMARK(BM_Mont_MulBatch_Avx2)->Args({1024, 8})->Args({2048, 8});

void BM_Mont_MulBatch_Portable(benchmark::State& state) {
  RunMulBatch(state, MontBackend::kPortable);
}
BENCHMARK(BM_Mont_MulBatch_Portable)->Args({2048, 4})->Args({2048, 8});

void BM_Mont_SqrBatch(benchmark::State& state) {
  RunSqrBatch(state, BestMontBackend());
}
BENCHMARK(BM_Mont_SqrBatch)
    ->Args({1024, 4})->Args({1024, 8})->Args({2048, 4})->Args({2048, 8});

void BM_Mont_SqrBatch_Avx2(benchmark::State& state) {
  RunSqrBatch(state, MontBackend::kAvx2);
}
BENCHMARK(BM_Mont_SqrBatch_Avx2)->Args({1024, 8})->Args({2048, 8});

void BM_Mont_SqrBatch_Portable(benchmark::State& state) {
  RunSqrBatch(state, MontBackend::kPortable);
}
BENCHMARK(BM_Mont_SqrBatch_Portable)->Args({2048, 4})->Args({2048, 8});

// --- Constant-time tier overhead --------------------------------------

void BM_Mont_CtMul(benchmark::State& state) {
  // Divide against BM_Mont_MulRaw at the same width for the branchless-
  // correction overhead.
  const size_t bits = static_cast<size_t>(state.range(0));
  BatchBench b(bits, 1);
  for (auto _ : state) {
    b.ctx.CtMulInto(b.in[0], b.in[0], b.out[0], &b.scratch);
    benchmark::DoNotOptimize(b.lanes[0].data());
  }
}
BENCHMARK(BM_Mont_CtMul)->Arg(1024)->Arg(2048);

void BM_Mont_ModExp(benchmark::State& state) {
  // Variable-time sliding-window ladder at the CRT-decryption shape
  // (modulus p^2, exponent p-1: half the modulus width).
  const size_t bits = static_cast<size_t>(state.range(0));
  BatchBench b(bits, 1);
  BigInt base = BigInt::RandomBelow(b.ctx.modulus(), &Srng());
  BigInt e = BigInt::RandomWithBits(bits / 2, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.ctx.ModExp(base, e));
  }
}
BENCHMARK(BM_Mont_ModExp)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_Mont_CtModExp(benchmark::State& state) {
  // Fixed-window always-multiply ladder, same shape as BM_Mont_ModExp:
  // the ratio of the two rows is the price of the ct contract.
  const size_t bits = static_cast<size_t>(state.range(0));
  BatchBench b(bits, 1);
  BigInt base = BigInt::RandomBelow(b.ctx.modulus(), &Srng());
  BigInt e = BigInt::RandomWithBits(bits / 2, &Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.ctx.CtModExp(base, e));
  }
}
BENCHMARK(BM_Mont_CtModExp)
    ->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void RunCtModExpMany8(benchmark::State& state, MontBackend backend) {
  // The batched ct ladder (shared exponent, 8 lanes) — the packed-CRT
  // decryption exponentiation shape; per-lane cost = time / items.
  const size_t bits = static_cast<size_t>(state.range(0));
  const size_t k = 8;
  const MontBackend prev = ActiveMontBackend();  // see RunMulBatch
  if (SetMontBackend(backend) != backend) {
    SetMontBackend(prev);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  BatchBench b(bits, k);
  BigInt e = BigInt::RandomWithBits(bits / 2, &Srng());
  for (auto _ : state) {
    b.ctx.CtModExpManyInto(k, b.in.data(), e, 0, b.out.data(), &b.scratch);
    benchmark::DoNotOptimize(b.lanes[0].data());
  }
  SetMontBackend(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}

void BM_Mont_CtModExpMany8(benchmark::State& state) {
  RunCtModExpMany8(state, BestMontBackend());
}
BENCHMARK(BM_Mont_CtModExpMany8)
    ->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_Mont_CtModExpMany8_Avx2(benchmark::State& state) {
  RunCtModExpMany8(state, MontBackend::kAvx2);
}
BENCHMARK(BM_Mont_CtModExpMany8_Avx2)
    ->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_Paillier_DecryptPackedBatch(benchmark::State& state) {
  // Multi-group batched share recovery (8 pack groups per lane block)
  // at the Table-III layout; per-row cost = time / items, divide
  // against BM_Paillier_DecryptPacked for the interleave win.
  auto& f = Paillier();
  const unsigned ell = 36, slot_bits = 39;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const size_t cap = f.kp.priv.PackedSlotCapacity(slot_bits);
  const size_t count = cap * MontgomeryCtx::kMaxBatchLanes;
  std::vector<PaillierCiphertext> cs(count);
  for (size_t i = 0; i < count; ++i) {
    cs[i] = *f.kp.pub.EncryptU64((0x9E3779B97F4A7C15ULL * i) & mask,
                                 &Srng());
  }
  std::vector<uint64_t> out(count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kp.priv.DecryptPackedMod2EllBatch(
        cs.data(), count, slot_bits, ell, out.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_Paillier_DecryptPackedBatch)->Unit(benchmark::kMillisecond);

void BM_Paillier_DecryptPackedBatch_Ragged(benchmark::State& state) {
  // One PEOS server batch at the perfbench peos-eos layout (4096 rows,
  // ell 35, slot 38): the prepare stage slices it into cap * 8-row
  // chunks, so it ends in a ragged 144-row chunk (5.5 groups at cap 26).
  // Serial, so the ragged chunk's cost shows in full.
  auto& f = Paillier();
  const unsigned ell = 35, slot_bits = 38;
  const uint64_t mask = (uint64_t{1} << ell) - 1;
  const size_t rows = 4096;
  const size_t chunk = f.kp.priv.PackedSlotCapacity(slot_bits) *
                       MontgomeryCtx::kMaxBatchLanes;
  std::vector<PaillierCiphertext> cs(rows);
  for (size_t i = 0; i < rows; ++i) {
    cs[i] = f.pool->EncryptFastU64((0x9E3779B97F4A7C15ULL * i) & mask,
                                   &Srng());
  }
  std::vector<uint64_t> out(rows);
  for (auto _ : state) {
    for (size_t lo = 0; lo < rows; lo += chunk) {
      benchmark::DoNotOptimize(f.kp.priv.DecryptPackedMod2EllBatch(
          cs.data() + lo, std::min(chunk, rows - lo), slot_bits, ell,
          out.data() + lo));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_Paillier_DecryptPackedBatch_Ragged)
    ->Unit(benchmark::kMillisecond);

void BM_P256_ScalarBaseMult(benchmark::State& state) {
  Scalar256 k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(P256::ScalarBaseMult(k));
    k[0]++;
  }
}
BENCHMARK(BM_P256_ScalarBaseMult)->Unit(benchmark::kMicrosecond);

// The seed implementation (double-and-add ladder), kept as the "before"
// number for the comb / fixed-window speedups.
void BM_P256_ScalarBaseMult_Reference(benchmark::State& state) {
  Scalar256 k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(P256::ScalarBaseMultReference(k));
    k[0]++;
  }
}
BENCHMARK(BM_P256_ScalarBaseMult_Reference)->Unit(benchmark::kMicrosecond);

void BM_P256_ScalarBaseMultBatch64(benchmark::State& state) {
  std::vector<Scalar256> ks(64);
  for (auto& k : ks) k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(P256::ScalarBaseMultBatch(ks));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_P256_ScalarBaseMultBatch64)->Unit(benchmark::kMicrosecond);

void BM_P256_ScalarMult(benchmark::State& state) {
  P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&Srng()));
  Scalar256 k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(P256::ScalarMult(k, p));
    k[0]++;
  }
}
BENCHMARK(BM_P256_ScalarMult)->Unit(benchmark::kMicrosecond);

void BM_P256_ScalarMult_Reference(benchmark::State& state) {
  P256Point p = P256::ScalarBaseMult(P256::RandomScalar(&Srng()));
  Scalar256 k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(P256::ScalarMultReference(k, p));
    k[0]++;
  }
}
BENCHMARK(BM_P256_ScalarMult_Reference)->Unit(benchmark::kMicrosecond);

void BM_P256_PrecomputedMult(benchmark::State& state) {
  P256Precomputed pre(P256::ScalarBaseMult(P256::RandomScalar(&Srng())));
  Scalar256 k = P256::RandomScalar(&Srng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.Mult(k));
    k[0]++;
  }
}
BENCHMARK(BM_P256_PrecomputedMult)->Unit(benchmark::kMicrosecond);

// The two batched multiplies behind SS, 64 at a time: one key times 64
// points (a decrypt chunk: ScalarMultBatch) and 64 scalars on one comb
// table (an encrypt chunk: P256Precomputed::MultBatch). The plain rows run
// the host's best P-256 backend, the _Portable rows pin the portable one.
void RunP256Batch64(benchmark::State& state, P256Backend backend, bool comb) {
  // Capture the active backend first: SetP256Backend returns the new one.
  const P256Backend prev = ActiveP256Backend();
  if (SetP256Backend(backend) != backend) {
    SetP256Backend(prev);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  std::vector<P256Point> points(64);
  std::vector<Scalar256> ks(64);
  for (size_t i = 0; i < 64; ++i) {
    points[i] = P256::ScalarBaseMult(P256::RandomScalar(&Srng()));
    ks[i] = P256::RandomScalar(&Srng());
  }
  const P256Precomputed pre(points[0]);
  for (auto _ : state) {
    if (comb) {
      benchmark::DoNotOptimize(pre.MultBatch(ks));
    } else {
      benchmark::DoNotOptimize(P256::ScalarMultBatch(ks[0], points));
    }
  }
  SetP256Backend(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}

void BM_P256_ScalarMultBatch64(benchmark::State& state) {
  RunP256Batch64(state, BestP256Backend(), false);
}
BENCHMARK(BM_P256_ScalarMultBatch64)->Unit(benchmark::kMicrosecond);

void BM_P256_ScalarMultBatch64_Portable(benchmark::State& state) {
  RunP256Batch64(state, P256Backend::kPortable, false);
}
BENCHMARK(BM_P256_ScalarMultBatch64_Portable)->Unit(benchmark::kMicrosecond);

void BM_P256_CombMultBatch64(benchmark::State& state) {
  RunP256Batch64(state, BestP256Backend(), true);
}
BENCHMARK(BM_P256_CombMultBatch64)->Unit(benchmark::kMicrosecond);

void BM_P256_CombMultBatch64_Portable(benchmark::State& state) {
  RunP256Batch64(state, P256Backend::kPortable, true);
}
BENCHMARK(BM_P256_CombMultBatch64_Portable)->Unit(benchmark::kMicrosecond);

void BM_Ecies_Encrypt32B(benchmark::State& state) {
  auto kp = EciesGenerateKeyPair(&Srng());
  Bytes msg(32, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EciesEncrypt(kp.public_key, msg, &Srng()));
  }
}
BENCHMARK(BM_Ecies_Encrypt32B)->Unit(benchmark::kMicrosecond);

// Batched report encryption (64 reports to one recipient); the per-report
// cost is the iteration time divided by 64 (see items_per_second).
void BM_Ecies_EncryptBatch64x32B(benchmark::State& state) {
  auto kp = EciesGenerateKeyPair(&Srng());
  std::vector<Bytes> msgs(64, Bytes(32, 0x5A));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EciesEncryptBatch(kp.public_key, msgs, &Srng()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Ecies_EncryptBatch64x32B)->Unit(benchmark::kMicrosecond);

void BM_Ecies_Decrypt32B(benchmark::State& state) {
  auto kp = EciesGenerateKeyPair(&Srng());
  Bytes blob = EciesEncrypt(kp.public_key, Bytes(32, 0x5A), &Srng()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EciesDecrypt(kp.private_key, blob));
  }
}
BENCHMARK(BM_Ecies_Decrypt32B)->Unit(benchmark::kMicrosecond);

// 64 distinct blobs under one key: a shuffler's peel chunk.
std::vector<Bytes> PeelChunk64(const EciesKeyPair& kp) {
  return EciesEncryptBatch(kp.public_key,
                           std::vector<Bytes>(64, Bytes(32, 0x5A)), &Srng())
      .value();
}

// Batched decryption of one peel chunk; the per-blob cost is the iteration
// time divided by 64.
void BM_Ecies_DecryptBatch64x32B(benchmark::State& state) {
  auto kp = EciesGenerateKeyPair(&Srng());
  std::vector<Bytes> blobs = PeelChunk64(kp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EciesDecryptBatch(kp.private_key, blobs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Ecies_DecryptBatch64x32B)->Unit(benchmark::kMicrosecond);

// The same chunk through 64 single-shot EciesDecrypt calls: the baseline
// for the batched row.
void BM_Ecies_DecryptLoop64x32B(benchmark::State& state) {
  auto kp = EciesGenerateKeyPair(&Srng());
  std::vector<Bytes> blobs = PeelChunk64(kp);
  for (auto _ : state) {
    for (const Bytes& blob : blobs) {
      benchmark::DoNotOptimize(EciesDecrypt(kp.private_key, blob));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Ecies_DecryptLoop64x32B)->Unit(benchmark::kMicrosecond);

void BM_SecretShare_Split(benchmark::State& state) {
  const size_t r = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitShares2Ell(0xDEADBEEF, r, 64, &Srng()));
  }
}
BENCHMARK(BM_SecretShare_Split)->Arg(3)->Arg(7);

void BM_Oracle_Encode(benchmark::State& state) {
  Rng rng(7);
  ldp::LocalHash solh(4.0, 42178, 64, "SOLH");
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solh.Encode(v++ % 42178, &rng));
  }
}
BENCHMARK(BM_Oracle_Encode);

void BM_Oracle_SupportScan(benchmark::State& state) {
  // Server-side cost: one support test (the O(n d) aggregation kernel).
  Rng rng(8);
  ldp::LocalHash solh(4.0, 42178, 64, "SOLH");
  auto report = solh.Encode(5, &rng);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solh.Supports(report, v++ % 42178));
  }
}
BENCHMARK(BM_Oracle_SupportScan);

// --- Bulk support kernel (OLH/SOLH server aggregation) ---------------
// One 4096-report batch against a 1024-value domain; items are (report,
// value) pairs. d' = 8, 28, 168 are the d' the peos-eos, fleet-solh and
// ss-onion perfbench workloads run (8 takes the power-of-two mask path).

void RunSupportAccumulate(benchmark::State& state,
                          ldp::SupportBackend backend) {
  const uint32_t d_prime = static_cast<uint32_t>(state.range(0));
  const ldp::SupportBackend prev = ldp::ActiveSupportBackend();
  if (ldp::SetSupportBackend(backend) != backend) {
    ldp::SetSupportBackend(prev);
    state.SkipWithError("backend unavailable on this host");
    return;
  }
  constexpr size_t kReports = 4096;
  constexpr uint64_t kDomain = 1024;
  Rng rng(11);
  std::vector<ldp::LdpReport> reports(kReports);
  for (auto& r : reports) {
    r.seed = static_cast<uint32_t>(rng.NextU64());
    r.value = static_cast<uint32_t>(rng.UniformU64(d_prime));
  }
  std::vector<uint64_t> counts(kDomain, 0);
  for (auto _ : state) {
    ldp::AccumulateLocalHashSupports(reports.data(), kReports, 0, kDomain,
                                     d_prime, counts.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  ldp::SetSupportBackend(prev);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kReports * kDomain));
}

void BM_SupportKernel_Accumulate(benchmark::State& state) {
  RunSupportAccumulate(state, ldp::BestSupportBackend());
}
BENCHMARK(BM_SupportKernel_Accumulate)
    ->Arg(8)->Arg(28)->Arg(168)->Unit(benchmark::kMicrosecond);

void BM_SupportKernel_Accumulate_Avx2(benchmark::State& state) {
  RunSupportAccumulate(state, ldp::SupportBackend::kAvx2);
}
BENCHMARK(BM_SupportKernel_Accumulate_Avx2)
    ->Arg(8)->Arg(28)->Arg(168)->Unit(benchmark::kMicrosecond);

void BM_SupportKernel_Accumulate_Portable(benchmark::State& state) {
  RunSupportAccumulate(state, ldp::SupportBackend::kPortable);
}
BENCHMARK(BM_SupportKernel_Accumulate_Portable)
    ->Arg(8)->Arg(28)->Arg(168)->Unit(benchmark::kMicrosecond);

void BM_Grr_Encode(benchmark::State& state) {
  Rng rng(9);
  ldp::Grr grr(1.0, 915);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grr.Encode(v++ % 915, &rng));
  }
}
BENCHMARK(BM_Grr_Encode);

// One fleet-grr producer batch (4096 GRR d = 1024 ordinals, by value
// over P = 2) into its two finished kBatchIndexed frames.
struct RouteFramesInput {
  ldp::Grr grr{1.0, 1024};
  service::PartitionMap map;
  std::vector<uint64_t> ordinals;

  RouteFramesInput() {
    map = *service::PartitionMap::Create(grr, service::PartitionMode::kByValue,
                                         2);
    Rng rng(12);
    for (int i = 0; i < 4096; ++i) ordinals.push_back(rng.UniformU64(1024));
  }
};

void BM_RouteFrames(benchmark::State& state) {
  RouteFramesInput in;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::EncodeRoutedBatch(in.grr, in.map, 3, 7, in.ordinals));
  }
  state.SetItemsProcessed(state.iterations() * in.ordinals.size());
}
BENCHMARK(BM_RouteFrames);

// The same frames the long way: Route into groups, serialize each group
// behind its varint index, then EncodeFrame copies it behind a header.
void BM_RouteFrames_Reference(benchmark::State& state) {
  RouteFramesInput in;
  for (auto _ : state) {
    std::vector<std::vector<uint64_t>> groups = in.map.Route(7, in.ordinals);
    for (uint32_t p = 0; p < in.map.partitions(); ++p) {
      ByteWriter payload;
      payload.PutVarint(7);
      payload.PutBytes(ldp::SerializeOrdinals(in.grr, groups[p]));
      service::Frame frame;
      frame.type = service::FrameType::kBatchIndexed;
      frame.partition = static_cast<uint16_t>(p);
      frame.round_id = 3;
      frame.payload = payload.Release();
      benchmark::DoNotOptimize(service::EncodeFrame(frame));
    }
  }
  state.SetItemsProcessed(state.iterations() * in.ordinals.size());
}
BENCHMARK(BM_RouteFrames_Reference);

void BM_Crc32_4KiB(benchmark::State& state) {
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131);
  }
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(data.data(), data.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32_4KiB);

void BM_Binomial_LargeN(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Binomial(1000000, 0.001));
  }
}
BENCHMARK(BM_Binomial_LargeN);

}  // namespace

BENCHMARK_MAIN();
