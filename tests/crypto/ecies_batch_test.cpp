// Coverage for the batched ECIES API: every blob from EciesEncryptBatch /
// OnionEncryptBatch must decrypt exactly like its single-shot counterpart,
// with and without a thread pool, and peel layer by layer through
// EciesDecryptBatch.

#include "crypto/ecies.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "p256_backends.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace crypto {
namespace {

std::vector<Bytes> MakePlaintexts(size_t n) {
  std::vector<Bytes> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = Bytes(16 + i % 48, static_cast<uint8_t>(i * 7 + 1));
  }
  return out;
}

Bytes BytesFromDigest(const std::array<uint8_t, Sha256::kDigestSize>& d) {
  return Bytes(d.begin(), d.end());
}

// Unwraps an encrypt result, failing the test on an error.
template <typename T>
T Unwrap(Result<T> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : T{};
}

TEST(EciesBatchTest, BatchRoundTripsThroughSingleShotDecrypt) {
  SecureRandom rng(uint64_t{211});
  auto kp = EciesGenerateKeyPair(&rng);
  auto plaintexts = MakePlaintexts(40);
  auto blobs = Unwrap(EciesEncryptBatch(kp.public_key, plaintexts, &rng));
  ASSERT_EQ(blobs.size(), plaintexts.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    auto back = EciesDecrypt(kp.private_key, blobs[i]);
    ASSERT_TRUE(back.ok()) << "index " << i;
    EXPECT_EQ(*back, plaintexts[i]) << "index " << i;
  }
}

TEST(EciesBatchTest, BlobFormatMatchesSingleShot) {
  SecureRandom rng(uint64_t{223});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes msg(32, 0x5A);
  Bytes single = Unwrap(EciesEncrypt(kp.public_key, msg, &rng));
  auto batch = Unwrap(EciesEncryptBatch(kp.public_key, {msg}, &rng));
  ASSERT_EQ(batch.size(), 1u);
  // Fresh ephemeral keys make the bytes differ, but structure must match.
  EXPECT_EQ(batch[0].size(), single.size());
  EXPECT_EQ(batch[0][0], 0x04);
  EXPECT_NE(batch[0], single);
}

TEST(EciesBatchTest, EphemeralKeysAreIndependent) {
  SecureRandom rng(uint64_t{227});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes msg(24, 0x11);
  auto blobs = Unwrap(EciesEncryptBatch(kp.public_key, {msg, msg, msg}, &rng));
  EXPECT_NE(blobs[0], blobs[1]);
  EXPECT_NE(blobs[1], blobs[2]);
  // Distinct ephemeral points, not just distinct ciphertexts.
  EXPECT_NE(Bytes(blobs[0].begin(), blobs[0].begin() + 65),
            Bytes(blobs[1].begin(), blobs[1].begin() + 65));
}

TEST(EciesBatchTest, EmptyBatchAndEmptyPlaintext) {
  SecureRandom rng(uint64_t{229});
  auto kp = EciesGenerateKeyPair(&rng);
  EXPECT_TRUE(Unwrap(EciesEncryptBatch(kp.public_key, {}, &rng)).empty());
  auto blobs = Unwrap(EciesEncryptBatch(kp.public_key, {Bytes{}}, &rng));
  ASSERT_EQ(blobs.size(), 1u);
  auto back = EciesDecrypt(kp.private_key, blobs[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(EciesBatchTest, ParallelBatchMatchesSerialSemantics) {
  ThreadPool pool(4);
  SecureRandom rng(uint64_t{233});
  auto kp = EciesGenerateKeyPair(&rng);
  auto plaintexts = MakePlaintexts(64);
  auto blobs =
      Unwrap(EciesEncryptBatch(kp.public_key, plaintexts, &rng, &pool));
  ASSERT_EQ(blobs.size(), plaintexts.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    auto back = EciesDecrypt(kp.private_key, blobs[i]);
    ASSERT_TRUE(back.ok()) << "index " << i;
    EXPECT_EQ(*back, plaintexts[i]) << "index " << i;
  }
}

TEST(EciesBatchTest, OnionBatchPeelsLikeSingleShotOnion) {
  ThreadPool pool(2);
  SecureRandom rng(uint64_t{239});
  auto kp1 = EciesGenerateKeyPair(&rng);
  auto kp2 = EciesGenerateKeyPair(&rng);
  auto kp3 = EciesGenerateKeyPair(&rng);
  std::vector<P256Point> layers = {kp1.public_key, kp2.public_key,
                                   kp3.public_key};
  auto payloads = MakePlaintexts(12);
  auto onions = Unwrap(OnionEncryptBatch(layers, payloads, &rng, &pool));
  ASSERT_EQ(onions.size(), payloads.size());
  for (size_t i = 0; i < onions.size(); ++i) {
    auto l1 = EciesDecrypt(kp1.private_key, onions[i]);
    ASSERT_TRUE(l1.ok());
    auto l2 = EciesDecrypt(kp2.private_key, *l1);
    ASSERT_TRUE(l2.ok());
    auto l3 = EciesDecrypt(kp3.private_key, *l2);
    ASSERT_TRUE(l3.ok());
    EXPECT_EQ(*l3, payloads[i]) << "index " << i;
  }
  // Peeling whole layers with the batched decrypt gives the same payloads.
  std::vector<Bytes> current = onions;
  for (const EciesKeyPair* kp : {&kp1, &kp2, &kp3}) {
    std::vector<Result<Bytes>> peeled =
        EciesDecryptBatch(kp->private_key, current);
    ASSERT_EQ(peeled.size(), current.size());
    for (size_t i = 0; i < peeled.size(); ++i) {
      ASSERT_TRUE(peeled[i].ok()) << "index " << i;
      current[i] = *peeled[i];
    }
  }
  EXPECT_EQ(current, payloads);
}

TEST(EciesBatchTest, WrongKeyStillFails) {
  SecureRandom rng(uint64_t{241});
  auto kp = EciesGenerateKeyPair(&rng);
  auto other = EciesGenerateKeyPair(&rng);
  auto blobs = Unwrap(EciesEncryptBatch(kp.public_key, {Bytes(32, 1)}, &rng));
  auto back = EciesDecrypt(other.private_key, blobs[0]);
  if (back.ok()) EXPECT_NE(*back, Bytes(32, 1));
}

// SHA-256 over the concatenated blobs of a fixed-seed batch (50 reports
// to one recipient, then a 3-layer onion batch), recorded before the
// recipient multiply moved onto the comb table. An affine point is unique
// whatever algorithm computes it, so the bytes must never move, on any
// P-256 backend.
TEST(EciesBatchTest, FixedSeedBatchBytesArePinned) {
  const std::string kGoldenBatch =
      "522996a4e54eaf101328c5888f77ea4ac164d234a2f7ff1c69b915e66f988dc0";
  const std::string kGoldenOnion =
      "4e5b9c669806922cc5ed71d7aff5a84b788e112c33abfa3be8f238ada4262f18";
  ThreadPool four(4);
  for (P256Backend backend : AvailableP256Backends()) {
    ScopedP256Backend scoped(backend);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      SCOPED_TRACE(std::string(P256BackendName(backend)) +
                   (pool == nullptr ? ", serial" : ", 4 workers"));
      SecureRandom rng(uint64_t{251});
      auto kp = EciesGenerateKeyPair(&rng);
      auto blobs = Unwrap(
          EciesEncryptBatch(kp.public_key, MakePlaintexts(50), &rng, pool));
      Bytes all;
      for (const Bytes& b : blobs) all.insert(all.end(), b.begin(), b.end());
      EXPECT_EQ(ToHex(BytesFromDigest(Sha256::Hash(all))), kGoldenBatch);

      std::vector<P256Point> layers;
      for (int i = 0; i < 3; ++i) {
        layers.push_back(EciesGenerateKeyPair(&rng).public_key);
      }
      auto onions =
          Unwrap(OnionEncryptBatch(layers, MakePlaintexts(20), &rng, pool));
      all.clear();
      for (const Bytes& b : onions) all.insert(all.end(), b.begin(), b.end());
      EXPECT_EQ(ToHex(BytesFromDigest(Sha256::Hash(all))), kGoldenOnion);
    }
  }
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
