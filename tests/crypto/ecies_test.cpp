#include "crypto/ecies.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "p256_backends.h"

namespace shuffledp {
namespace crypto {
namespace {

// Encrypts with EciesEncrypt, failing the test on an error.
Bytes Encrypt(const P256Point& recipient, const Bytes& msg,
              SecureRandom* rng) {
  auto blob = EciesEncrypt(recipient, msg, rng);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ok() ? *blob : Bytes{};
}

TEST(EciesTest, RoundTrip) {
  SecureRandom rng(uint64_t{1});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes msg = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Bytes blob = Encrypt(kp.public_key, msg, &rng);
  auto back = EciesDecrypt(kp.private_key, blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, msg);
}

TEST(EciesTest, EmptyMessageRoundTrip) {
  SecureRandom rng(uint64_t{2});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes blob = Encrypt(kp.public_key, Bytes{}, &rng);
  auto back = EciesDecrypt(kp.private_key, blob);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(EciesTest, CiphertextIsRandomized) {
  SecureRandom rng(uint64_t{3});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes msg(32, 0x42);
  Bytes b1 = Encrypt(kp.public_key, msg, &rng);
  Bytes b2 = Encrypt(kp.public_key, msg, &rng);
  EXPECT_NE(b1, b2);  // fresh ephemeral key each time
}

TEST(EciesTest, WrongKeyFails) {
  SecureRandom rng(uint64_t{4});
  auto kp1 = EciesGenerateKeyPair(&rng);
  auto kp2 = EciesGenerateKeyPair(&rng);
  Bytes msg(100, 0x7);
  Bytes blob = Encrypt(kp1.public_key, msg, &rng);
  auto back = EciesDecrypt(kp2.private_key, blob);
  if (back.ok()) EXPECT_NE(*back, msg);
}

TEST(EciesTest, TruncatedBlobRejected) {
  SecureRandom rng(uint64_t{5});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes blob = Encrypt(kp.public_key, Bytes(10, 1), &rng);
  blob.resize(40);
  EXPECT_FALSE(EciesDecrypt(kp.private_key, blob).ok());
}

TEST(EciesTest, OverheadMatchesConstant) {
  SecureRandom rng(uint64_t{6});
  auto kp = EciesGenerateKeyPair(&rng);
  // 16-byte message pads to 32; total = 65 + 16 + 32.
  Bytes blob = Encrypt(kp.public_key, Bytes(16, 0), &rng);
  EXPECT_EQ(blob.size(), kEciesOverhead + 32);
}

// A fixed-seed batch mixing every outcome single-shot decryption can
// have. Each blob's description was recorded with EciesDecrypt before
// the batched decrypt existed; the batch must reproduce it entry by entry.
std::vector<Bytes> MixedDecryptBlobs(SecureRandom* rng, EciesKeyPair* kp) {
  *kp = EciesGenerateKeyPair(rng);
  EciesKeyPair other = EciesGenerateKeyPair(rng);
  std::vector<Bytes> blobs;
  blobs.push_back(Encrypt(kp->public_key, Bytes{1, 2, 3}, rng));
  Bytes truncated = Encrypt(kp->public_key, Bytes(10, 1), rng);
  truncated.resize(P256::kPointBytes + 31);
  blobs.push_back(truncated);
  Bytes off_curve = Encrypt(kp->public_key, Bytes(5, 2), rng);
  off_curve[40] ^= 0x01;  // R.y no longer matches R.x
  blobs.push_back(off_curve);
  Bytes bad_prefix = Encrypt(kp->public_key, Bytes(5, 3), rng);
  bad_prefix[0] = 0x05;
  blobs.push_back(bad_prefix);
  blobs.push_back(Encrypt(other.public_key, Bytes(20, 4), rng));
  blobs.push_back(Encrypt(kp->public_key, Bytes{}, rng));
  Bytes bad_padding = Encrypt(kp->public_key, Bytes(16, 5), rng);
  bad_padding.back() ^= 0x80;  // last block decrypts to garbage padding
  blobs.push_back(bad_padding);
  blobs.push_back(Bytes{});
  blobs.push_back(Encrypt(kp->public_key, Bytes(33, 6), rng));
  return blobs;
}

std::string Describe(const Result<Bytes>& r) {
  return r.ok() ? "ok:" + ToHex(*r) : "err:" + r.status().ToString();
}

TEST(EciesTest, MixedBatchDecryptMatchesRecordedOutcomes) {
  SecureRandom rng(uint64_t{10});
  EciesKeyPair kp;
  std::vector<Bytes> blobs = MixedDecryptBlobs(&rng, &kp);
  const std::vector<std::string> kGolden = {
      "ok:010203",
      "err:CryptoError: ECIES: blob too short",
      "err:CryptoError: P256: point not on curve",
      "err:CryptoError: P256: malformed point encoding",
      "err:CryptoError: CBC bad padding",  // encrypted to another key
      "ok:",
      "err:CryptoError: CBC bad padding",
      "err:CryptoError: ECIES: blob too short",
      "ok:060606060606060606060606060606060606060606060606060606060606060606"};
  for (P256Backend backend : AvailableP256Backends()) {
    ScopedP256Backend scoped(backend);
    SCOPED_TRACE(P256BackendName(backend));
    std::vector<std::string> batch, single;
    for (const Result<Bytes>& r : EciesDecryptBatch(kp.private_key, blobs)) {
      batch.push_back(Describe(r));
    }
    for (const Bytes& b : blobs) {
      single.push_back(Describe(EciesDecrypt(kp.private_key, b)));
    }
    EXPECT_EQ(batch, kGolden);
    EXPECT_EQ(single, kGolden);
    EXPECT_TRUE(EciesDecryptBatch(kp.private_key, {}).empty());
  }
}

TEST(EciesTest, ZeroPrivateKeyGivesDegenerateSharedPoint) {
  SecureRandom rng(uint64_t{11});
  auto kp = EciesGenerateKeyPair(&rng);
  Bytes blob = Encrypt(kp.public_key, Bytes(8, 1), &rng);
  auto out = EciesDecryptBatch(Scalar256{}, {blob, Bytes(3, 0), blob});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(Describe(out[0]), "err:CryptoError: ECIES: degenerate shared point");
  EXPECT_EQ(Describe(out[1]), "err:CryptoError: ECIES: blob too short");
  EXPECT_EQ(Describe(out[2]), Describe(out[0]));
  EXPECT_EQ(Describe(EciesDecrypt(Scalar256{}, blob)), Describe(out[0]));
}

// Encrypting to infinity used to derive the AES key from the public bytes
// 04||0^64 (Serialize's assert is compiled out in Release), so anyone
// could read the plaintext. Every encrypt entry point must refuse such a
// recipient, and one off the curve.
TEST(EciesTest, InvalidRecipientIsRejected) {
  SecureRandom rng(uint64_t{12});
  P256Point off_curve = P256::Generator();
  off_curve.y[0] ^= 1;
  const P256Point valid = EciesGenerateKeyPair(&rng).public_key;
  for (const P256Point& bad : {P256Point{}, off_curve}) {
    SCOPED_TRACE(bad.infinity ? "infinity" : "off the curve");
    auto single = EciesEncrypt(bad, Bytes(16, 7), &rng);
    ASSERT_FALSE(single.ok());
    EXPECT_EQ(single.status().code(), StatusCode::kCryptoError);
    auto batch = EciesEncryptBatch(bad, {Bytes(16, 7), Bytes(3, 1)}, &rng);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kCryptoError);
    // Even an empty batch names the bad recipient.
    EXPECT_FALSE(EciesEncryptBatch(bad, {}, &rng).ok());
    EXPECT_FALSE(OnionEncrypt({valid, bad}, Bytes(4, 1), &rng).ok());
    EXPECT_FALSE(OnionEncrypt({bad, valid}, Bytes(4, 1), &rng).ok());
    EXPECT_FALSE(OnionEncryptBatch({bad, valid}, {Bytes(4, 1)}, &rng).ok());
    EXPECT_FALSE(OnionEncryptBatch({valid, bad}, {Bytes(4, 1)}, &rng).ok());
  }
}

TEST(OnionTest, ThreeLayerPeeling) {
  SecureRandom rng(uint64_t{7});
  std::vector<EciesKeyPair> parties;
  std::vector<P256Point> layer_keys;
  for (int i = 0; i < 3; ++i) {
    parties.push_back(EciesGenerateKeyPair(&rng));
    layer_keys.push_back(parties.back().public_key);
  }
  Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF};
  Bytes onion = OnionEncrypt(layer_keys, payload, &rng).value();

  // Peel in order: party 0 first.
  Bytes current = onion;
  for (int i = 0; i < 3; ++i) {
    auto peeled = EciesDecrypt(parties[i].private_key, current);
    ASSERT_TRUE(peeled.ok()) << "layer " << i;
    current = *peeled;
  }
  EXPECT_EQ(current, payload);
}

TEST(OnionTest, OutOfOrderPeelFails) {
  SecureRandom rng(uint64_t{8});
  auto kp1 = EciesGenerateKeyPair(&rng);
  auto kp2 = EciesGenerateKeyPair(&rng);
  Bytes onion =
      OnionEncrypt({kp1.public_key, kp2.public_key}, Bytes(8, 0x1), &rng)
          .value();
  // Trying to peel with party 2's key first must not reveal the payload.
  auto wrong = EciesDecrypt(kp2.private_key, onion);
  if (wrong.ok()) {
    auto inner = EciesDecrypt(kp1.private_key, *wrong);
    EXPECT_FALSE(inner.ok() && *inner == Bytes(8, 0x1));
  }
}

TEST(OnionTest, SizeGrowsLinearlyInLayers) {
  SecureRandom rng(uint64_t{9});
  std::vector<P256Point> keys;
  Bytes payload(32, 0);
  size_t prev = 0;
  for (int layers = 1; layers <= 4; ++layers) {
    keys.push_back(EciesGenerateKeyPair(&rng).public_key);
    size_t size = OnionEncrypt(keys, payload, &rng)->size();
    EXPECT_GT(size, prev);
    prev = size;
  }
  // Each layer adds kEciesOverhead + padding (<= 16 extra).
  EXPECT_LE(prev, 4 * (kEciesOverhead + 16) + payload.size() + 16);
}

}  // namespace
}  // namespace crypto
}  // namespace shuffledp
