#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SHUFFLEDP_AESNI_COMPILED 1
#include <immintrin.h>
#endif

#include "util/cpu_features.h"

namespace shuffledp {
namespace crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline uint8_t GfMul(uint8_t x, uint8_t y) {
  uint8_t r = 0;
  while (y) {
    if (y & 1) r ^= x;
    x = Xtime(x);
    y >>= 1;
  }
  return r;
}

// ---------------------------------------------------------------------------
// AES-NI backend. Key expansion is shared with the portable path (it runs
// once per key and is cheap); the per-block transforms use the hardware
// instructions. Compiled with a function-level target attribute so the
// translation unit itself needs no -maes flag, and only executed after a
// runtime CPUID check.
// ---------------------------------------------------------------------------

#ifdef SHUFFLEDP_AESNI_COMPILED

__attribute__((target("aes,sse2"))) void AesNiInvertRoundKeys(
    const uint8_t enc[176], uint8_t dec[176]) {
  // Equivalent Inverse Cipher (FIPS 197 §5.3.5): reversed round keys with
  // InvMixColumns applied to the middle nine.
  __m128i k;
  k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc + 160));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dec), k);
  for (int i = 1; i <= 9; ++i) {
    k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc + 16 * (10 - i)));
    k = _mm_aesimc_si128(k);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dec + 16 * i), k);
  }
  k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(enc));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dec + 160), k);
}

__attribute__((target("aes,sse2"))) void AesNiEncryptBlocks(
    const uint8_t rk[176], const uint8_t* in, uint8_t* out, size_t nblocks) {
  __m128i k[11];
  for (int i = 0; i < 11; ++i) {
    k[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * i));
  }
  // Four blocks in flight to cover the aesenc latency.
  while (nblocks >= 4) {
    __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16));
    __m128i b2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 32));
    __m128i b3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 48));
    b0 = _mm_xor_si128(b0, k[0]);
    b1 = _mm_xor_si128(b1, k[0]);
    b2 = _mm_xor_si128(b2, k[0]);
    b3 = _mm_xor_si128(b3, k[0]);
    for (int r = 1; r <= 9; ++r) {
      b0 = _mm_aesenc_si128(b0, k[r]);
      b1 = _mm_aesenc_si128(b1, k[r]);
      b2 = _mm_aesenc_si128(b2, k[r]);
      b3 = _mm_aesenc_si128(b3, k[r]);
    }
    b0 = _mm_aesenclast_si128(b0, k[10]);
    b1 = _mm_aesenclast_si128(b1, k[10]);
    b2 = _mm_aesenclast_si128(b2, k[10]);
    b3 = _mm_aesenclast_si128(b3, k[10]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), b1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32), b2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48), b3);
    in += 64;
    out += 64;
    nblocks -= 4;
  }
  while (nblocks > 0) {
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    b = _mm_xor_si128(b, k[0]);
    for (int r = 1; r <= 9; ++r) b = _mm_aesenc_si128(b, k[r]);
    b = _mm_aesenclast_si128(b, k[10]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
    in += 16;
    out += 16;
    --nblocks;
  }
}

__attribute__((target("aes,sse2"))) void AesNiDecryptBlock(
    const uint8_t dk[176], const uint8_t in[16], uint8_t out[16]) {
  __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  b = _mm_xor_si128(b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk)));
  for (int r = 1; r <= 9; ++r) {
    b = _mm_aesdec_si128(
        b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk + 16 * r)));
  }
  b = _mm_aesdeclast_si128(
      b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(dk + 160)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

#endif  // SHUFFLEDP_AESNI_COMPILED

AesBackend& BackendOverride() {
  static AesBackend backend = BestAesBackend();
  return backend;
}

}  // namespace

// The feature probe runs where the AES-NI code compiles (x86) and reports
// nothing elsewhere.
AesBackend BestAesBackend() {
  return KernelCpuFeatures().aes ? AesBackend::kAesNi : AesBackend::kPortable;
}

AesBackend ActiveAesBackend() { return BackendOverride(); }

void SetAesBackend(AesBackend backend) {
  if (backend == AesBackend::kAesNi && !KernelCpuFeatures().aes) {
    backend = AesBackend::kPortable;
  }
  BackendOverride() = backend;
}

const char* AesBackendName(AesBackend backend) {
  return backend == AesBackend::kAesNi ? "aesni" : "portable";
}

Aes128::Aes128(const std::array<uint8_t, kKeySize>& key)
    : backend_(ActiveAesBackend()) {
  std::memcpy(round_keys_, key.data(), 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, round_keys_ + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      uint8_t t = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[4 * i + j] =
          static_cast<uint8_t>(round_keys_[4 * (i - 4) + j] ^ temp[j]);
    }
  }
#ifdef SHUFFLEDP_AESNI_COMPILED
  if (backend_ == AesBackend::kAesNi) {
    AesNiInvertRoundKeys(round_keys_, dec_round_keys_);
  }
#endif
}

void Aes128::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#ifdef SHUFFLEDP_AESNI_COMPILED
  if (backend_ == AesBackend::kAesNi) {
    AesNiEncryptBlocks(round_keys_, in, out, 1);
    return;
  }
#endif
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[i];

  for (int round = 1; round <= 10; ++round) {
    // SubBytes.
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[4*c + r]).
    uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    // MixColumns (skipped in the final round).
    if (round != 10) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(Xtime(a0) ^ Xtime(a1) ^ a1 ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ Xtime(a2) ^ a2 ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ Xtime(a3) ^ a3);
        col[3] = static_cast<uint8_t>(Xtime(a0) ^ a0 ^ a1 ^ a2 ^ Xtime(a3));
      }
    }
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
  }
  std::memcpy(out, s, 16);
}

void Aes128::EncryptBlocks(const uint8_t* in, uint8_t* out,
                           size_t nblocks) const {
#ifdef SHUFFLEDP_AESNI_COMPILED
  if (backend_ == AesBackend::kAesNi) {
    AesNiEncryptBlocks(round_keys_, in, out, nblocks);
    return;
  }
#endif
  for (size_t i = 0; i < nblocks; ++i) {
    EncryptBlock(in + 16 * i, out + 16 * i);
  }
}

void Aes128::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#ifdef SHUFFLEDP_AESNI_COMPILED
  if (backend_ == AesBackend::kAesNi) {
    AesNiDecryptBlock(dec_round_keys_, in, out);
    return;
  }
#endif
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[160 + i];

  for (int round = 9; round >= 0; --round) {
    // InvShiftRows.
    uint8_t t;
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
    // InvSubBytes.
    for (auto& b : s) b = kInvSbox[b];
    // AddRoundKey.
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
    // InvMixColumns (skipped before the first round key).
    if (round != 0) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(GfMul(a0, 0x0e) ^ GfMul(a1, 0x0b) ^
                                      GfMul(a2, 0x0d) ^ GfMul(a3, 0x09));
        col[1] = static_cast<uint8_t>(GfMul(a0, 0x09) ^ GfMul(a1, 0x0e) ^
                                      GfMul(a2, 0x0b) ^ GfMul(a3, 0x0d));
        col[2] = static_cast<uint8_t>(GfMul(a0, 0x0d) ^ GfMul(a1, 0x09) ^
                                      GfMul(a2, 0x0e) ^ GfMul(a3, 0x0b));
        col[3] = static_cast<uint8_t>(GfMul(a0, 0x0b) ^ GfMul(a1, 0x0d) ^
                                      GfMul(a2, 0x09) ^ GfMul(a3, 0x0e));
      }
    }
  }
  std::memcpy(out, s, 16);
}

Bytes AesCbcEncrypt(const std::array<uint8_t, 16>& key,
                    const std::array<uint8_t, 16>& iv,
                    const Bytes& plaintext) {
  Aes128 aes(key);
  // PKCS#7 pad to a multiple of 16.
  size_t pad = 16 - plaintext.size() % 16;
  Bytes padded = plaintext;
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));

  Bytes out;
  out.reserve(16 + padded.size());
  out.insert(out.end(), iv.begin(), iv.end());

  uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  uint8_t block[16];
  for (size_t off = 0; off < padded.size(); off += 16) {
    for (int i = 0; i < 16; ++i) block[i] = padded[off + i] ^ chain[i];
    aes.EncryptBlock(block, chain);
    out.insert(out.end(), chain, chain + 16);
  }
  return out;
}

Result<Bytes> AesCbcDecrypt(const std::array<uint8_t, 16>& key,
                            const Bytes& iv_and_ciphertext) {
  if (iv_and_ciphertext.size() < 32 || iv_and_ciphertext.size() % 16 != 0) {
    return Status::CryptoError("CBC ciphertext malformed");
  }
  Aes128 aes(key);
  const uint8_t* chain = iv_and_ciphertext.data();
  Bytes out;
  out.resize(iv_and_ciphertext.size() - 16);
  for (size_t off = 16; off < iv_and_ciphertext.size(); off += 16) {
    uint8_t block[16];
    aes.DecryptBlock(iv_and_ciphertext.data() + off, block);
    for (int i = 0; i < 16; ++i) out[off - 16 + i] = block[i] ^ chain[i];
    chain = iv_and_ciphertext.data() + off;
  }
  uint8_t pad = out.back();
  if (pad == 0 || pad > 16 || pad > out.size()) {
    return Status::CryptoError("CBC bad padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return Status::CryptoError("CBC bad padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Bytes AesCtrCrypt(const std::array<uint8_t, 16>& key,
                  const std::array<uint8_t, 12>& nonce, const Bytes& data,
                  uint32_t initial_counter) {
  Aes128 aes(key);
  Bytes out(data.size());
  uint32_t counter = initial_counter;
  // Generate keystream in batches so the AES-NI backend can pipeline.
  constexpr size_t kBatchBlocks = 16;
  uint8_t counters[16 * kBatchBlocks];
  uint8_t keystream[16 * kBatchBlocks];
  for (size_t off = 0; off < data.size(); off += 16 * kBatchBlocks) {
    size_t bytes = std::min<size_t>(16 * kBatchBlocks, data.size() - off);
    size_t blocks = (bytes + 15) / 16;
    for (size_t b = 0; b < blocks; ++b) {
      std::memcpy(counters + 16 * b, nonce.data(), 12);
      counters[16 * b + 12] = static_cast<uint8_t>(counter >> 24);
      counters[16 * b + 13] = static_cast<uint8_t>(counter >> 16);
      counters[16 * b + 14] = static_cast<uint8_t>(counter >> 8);
      counters[16 * b + 15] = static_cast<uint8_t>(counter);
      ++counter;
    }
    aes.EncryptBlocks(counters, keystream, blocks);
    for (size_t i = 0; i < bytes; ++i) {
      out[off + i] = data[off + i] ^ keystream[i];
    }
  }
  return out;
}

}  // namespace crypto
}  // namespace shuffledp
