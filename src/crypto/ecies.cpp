#include "crypto/ecies.h"

#include <cstring>

#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace crypto {

EciesKeyPair EciesGenerateKeyPair(SecureRandom* rng) {
  EciesKeyPair kp;
  kp.private_key = P256::RandomScalar(rng);
  kp.public_key = P256::ScalarBaseMult(kp.private_key);
  return kp;
}

namespace {

// Derives (key, iv) from the shared ECDH point.
void DeriveKeyIv(const P256Point& shared, std::array<uint8_t, 16>* key,
                 std::array<uint8_t, 16>* iv) {
  Bytes encoded = P256::Serialize(shared);
  auto digest = Sha256::Hash(encoded.data(), encoded.size());
  std::memcpy(key->data(), digest.data(), 16);
  std::memcpy(iv->data(), digest.data() + 16, 16);
}

// Assembles R || IV || CBC(ciphertext) from the already-computed points.
Bytes AssembleBlob(const P256Point& r_point, const P256Point& shared,
                   const Bytes& plaintext) {
  std::array<uint8_t, 16> key, iv;
  DeriveKeyIv(shared, &key, &iv);
  Bytes out = P256::Serialize(r_point);
  Bytes ct = AesCbcEncrypt(key, iv, plaintext);
  out.insert(out.end(), ct.begin(), ct.end());
  return out;
}

// Rejects a recipient that is infinity or off the curve: Serialize would
// write the public bytes 04||0^64 for infinity, so the derived AES key
// would be public and anyone could read the plaintext.
Status CheckRecipient(const P256Point& recipient) {
  if (recipient.infinity || !P256::IsOnCurve(recipient)) {
    return Status::CryptoError("ECIES: recipient is not a curve point");
  }
  return Status::OK();
}

}  // namespace

Result<Bytes> EciesEncrypt(const P256Point& recipient, const Bytes& plaintext,
                           SecureRandom* rng) {
  SHUFFLEDP_RETURN_NOT_OK(CheckRecipient(recipient));
  Scalar256 ephemeral = P256::RandomScalar(rng);
  P256Point r_point = P256::ScalarBaseMult(ephemeral);
  P256Point shared = P256::ScalarMult(ephemeral, recipient);
  return AssembleBlob(r_point, shared, plaintext);
}

Result<std::vector<Bytes>> EciesEncryptBatch(
    const P256Point& recipient, const std::vector<Bytes>& plaintexts,
    SecureRandom* rng, ThreadPool* pool) {
  SHUFFLEDP_RETURN_NOT_OK(CheckRecipient(recipient));
  const size_t n = plaintexts.size();
  std::vector<Bytes> out(n);
  if (n == 0) return out;

  // Ephemeral scalars come from the caller's rng serially (SecureRandom is
  // not thread-safe); all the heavy arithmetic below is embarrassingly
  // parallel over disjoint chunks.
  std::vector<Scalar256> ephemerals(n);
  for (size_t i = 0; i < n; ++i) ephemerals[i] = P256::RandomScalar(rng);

  // One comb table for the recipient, shared by every report in the batch.
  P256Precomputed recipient_table(recipient);

  auto encrypt_range = [&](uint64_t lo, uint64_t hi) {
    std::vector<Scalar256> ks(ephemerals.begin() + lo, ephemerals.begin() + hi);
    // Batched affine conversions: one simultaneous inversion for the
    // ephemeral public points, one for the shared secrets.
    std::vector<P256Point> r_points = P256::ScalarBaseMultBatch(ks);
    std::vector<P256Point> shared = recipient_table.MultBatch(ks);
    for (uint64_t i = lo; i < hi; ++i) {
      out[i] = AssembleBlob(r_points[i - lo], shared[i - lo], plaintexts[i]);
    }
  };

  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(0, n, encrypt_range);
  } else {
    encrypt_range(0, n);
  }
  return out;
}

std::vector<Result<Bytes>> EciesDecryptBatch(const Scalar256& private_key,
                                             const std::vector<Bytes>& blobs) {
  // Parse every ephemeral point first. A rejected blob keeps its status and
  // joins the batch multiply as infinity; an accepted one holds an empty
  // placeholder until its plaintext replaces it.
  std::vector<Result<Bytes>> out;
  out.reserve(blobs.size());
  std::vector<P256Point> r_points(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    const Bytes& blob = blobs[i];
    if (blob.size() < P256::kPointBytes + 32) {
      out.emplace_back(Status::CryptoError("ECIES: blob too short"));
      continue;
    }
    auto r_point = P256::Parse(
        Bytes(blob.begin(), blob.begin() + P256::kPointBytes));
    if (!r_point.ok()) {
      out.emplace_back(r_point.status());
      continue;
    }
    r_points[i] = *r_point;
    out.emplace_back(Bytes{});
  }

  std::vector<P256Point> shared = P256::ScalarMultBatch(private_key, r_points);
  for (size_t i = 0; i < blobs.size(); ++i) {
    if (!out[i].ok()) continue;
    if (shared[i].infinity) {
      out[i] = Status::CryptoError("ECIES: degenerate shared point");
      continue;
    }
    std::array<uint8_t, 16> key, iv;
    DeriveKeyIv(shared[i], &key, &iv);
    Bytes ct(blobs[i].begin() + P256::kPointBytes, blobs[i].end());
    out[i] = AesCbcDecrypt(key, ct);
  }
  return out;
}

Result<Bytes> EciesDecrypt(const Scalar256& private_key, const Bytes& blob) {
  return std::move(EciesDecryptBatch(private_key, {blob})[0]);
}

Result<Bytes> OnionEncrypt(const std::vector<P256Point>& layers,
                           const Bytes& payload, SecureRandom* rng) {
  Bytes blob = payload;
  // Innermost layer first: the last recipient peels last.
  for (size_t i = layers.size(); i-- > 0;) {
    SHUFFLEDP_ASSIGN_OR_RETURN(blob, EciesEncrypt(layers[i], blob, rng));
  }
  return blob;
}

Result<std::vector<Bytes>> OnionEncryptBatch(
    const std::vector<P256Point>& layers, const std::vector<Bytes>& payloads,
    SecureRandom* rng, ThreadPool* pool) {
  std::vector<Bytes> blobs = payloads;
  for (size_t i = layers.size(); i-- > 0;) {
    SHUFFLEDP_ASSIGN_OR_RETURN(blobs,
                               EciesEncryptBatch(layers[i], blobs, rng, pool));
  }
  return blobs;
}

}  // namespace crypto
}  // namespace shuffledp
