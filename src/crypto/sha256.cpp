#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SHUFFLEDP_SHANI_COMPILED 1
#include <immintrin.h>
#endif

#include "util/cpu_features.h"

namespace shuffledp {
namespace crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int r) { return (x >> r) | (x << (32 - r)); }

// ---------------------------------------------------------------------------
// SHA-NI backend: the FIPS 180-4 compression function expressed with the
// x86 SHA extensions (sha256rnds2 runs two rounds; sha256msg1/msg2 compute
// the message schedule). Compiled behind a function-level target attribute
// and only executed after a runtime CPUID check.
// ---------------------------------------------------------------------------

#ifdef SHUFFLEDP_SHANI_COMPILED

__attribute__((target("sha,ssse3,sse4.1"))) void ShaNiProcessBlocks(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  const __m128i kShuffleMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Repack h0..h7 into the ABEF / CDGH register layout SHA-NI expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);    // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);        // CDGH

  while (nblocks > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg, msgtmp;
    __m128i msg0, msg1, msg2, msg3;

    // Rounds 0-3.
    msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), kShuffleMask);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7.
    msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11.
    msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15 onward follow one template: feed the schedule with
    // msg2/msg1 and advance four message registers cyclically.
    msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)),
        kShuffleMask);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

#define SHUFFLEDP_SHA_ROUND4(ma, mb, mc, md, k_hi, k_lo)          \
  msg = _mm_add_epi32(ma, _mm_set_epi64x(k_hi, k_lo));            \
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);            \
  msgtmp = _mm_alignr_epi8(ma, md, 4);                            \
  mb = _mm_add_epi32(mb, msgtmp);                                 \
  mb = _mm_sha256msg2_epu32(mb, ma);                              \
  msg = _mm_shuffle_epi32(msg, 0x0E);                             \
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);            \
  md = _mm_sha256msg1_epu32(md, ma)

    SHUFFLEDP_SHA_ROUND4(msg0, msg1, msg2, msg3, 0x240CA1CC0FC19DC6ULL,
                         0xEFBE4786E49B69C1ULL);  // rounds 16-19
    SHUFFLEDP_SHA_ROUND4(msg1, msg2, msg3, msg0, 0x76F988DA5CB0A9DCULL,
                         0x4A7484AA2DE92C6FULL);  // rounds 20-23
    SHUFFLEDP_SHA_ROUND4(msg2, msg3, msg0, msg1, 0xBF597FC7B00327C8ULL,
                         0xA831C66D983E5152ULL);  // rounds 24-27
    SHUFFLEDP_SHA_ROUND4(msg3, msg0, msg1, msg2, 0x1429296706CA6351ULL,
                         0xD5A79147C6E00BF3ULL);  // rounds 28-31
    SHUFFLEDP_SHA_ROUND4(msg0, msg1, msg2, msg3, 0x53380D134D2C6DFCULL,
                         0x2E1B213827B70A85ULL);  // rounds 32-35
    SHUFFLEDP_SHA_ROUND4(msg1, msg2, msg3, msg0, 0x92722C8581C2C92EULL,
                         0x766A0ABB650A7354ULL);  // rounds 36-39
    SHUFFLEDP_SHA_ROUND4(msg2, msg3, msg0, msg1, 0xC76C51A3C24B8B70ULL,
                         0xA81A664BA2BFE8A1ULL);  // rounds 40-43
    SHUFFLEDP_SHA_ROUND4(msg3, msg0, msg1, msg2, 0x106AA070F40E3585ULL,
                         0xD6990624D192E819ULL);  // rounds 44-47
    SHUFFLEDP_SHA_ROUND4(msg0, msg1, msg2, msg3, 0x34B0BCB52748774CULL,
                         0x1E376C0819A4C116ULL);  // rounds 48-51
#undef SHUFFLEDP_SHA_ROUND4

    // Rounds 52-55 (schedule no longer needs msg1).
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
    --nblocks;
  }

  // Repack ABEF / CDGH back to h0..h7.
  tmp = _mm_shuffle_epi32(state0, 0x1B);       // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);    // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0); // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);    // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif  // SHUFFLEDP_SHANI_COMPILED

ShaBackend& ShaBackendOverride() {
  static ShaBackend backend = BestShaBackend();
  return backend;
}

}  // namespace

// The feature probe runs where the SHA-NI code compiles (x86) and reports
// nothing elsewhere.
ShaBackend BestShaBackend() {
  return KernelCpuFeatures().sha ? ShaBackend::kShaNi : ShaBackend::kPortable;
}

ShaBackend ActiveShaBackend() { return ShaBackendOverride(); }

void SetShaBackend(ShaBackend backend) {
  if (backend == ShaBackend::kShaNi && !KernelCpuFeatures().sha) {
    backend = ShaBackend::kPortable;
  }
  ShaBackendOverride() = backend;
}

const char* ShaBackendName(ShaBackend backend) {
  return backend == ShaBackend::kShaNi ? "shani" : "portable";
}

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffered_ = 0;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t nblocks) {
#ifdef SHUFFLEDP_SHANI_COMPILED
  if (ActiveShaBackend() == ShaBackend::kShaNi) {
    ShaNiProcessBlocks(h_, data, nblocks);
    return;
  }
#endif
  for (size_t i = 0; i < nblocks; ++i) ProcessBlock(data + 64 * i);
}

void Sha256::ProcessBlock(const uint8_t block[64]) {
#ifdef SHUFFLEDP_SHANI_COMPILED
  if (ActiveShaBackend() == ShaBackend::kShaNi) {
    ShaNiProcessBlocks(h_, block, 1);
    return;
  }
#endif
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  if (len >= 64) {
    size_t nblocks = len / 64;
    ProcessBlocks(p, nblocks);
    p += 64 * nblocks;
    len -= 64 * nblocks;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad = 0x80;
  Update(&pad, 1);
  uint8_t zero = 0;
  while (buffered_ != 56) Update(&zero, 1);
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Bypass Update for the length to keep total_len_ bookkeeping simple.
  std::memcpy(buffer_ + buffered_, len_be, 8);
  ProcessBlock(buffer_);

  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(const void* data,
                                                      size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

std::array<uint8_t, 32> HmacSha256(const Bytes& key, const Bytes& message) {
  uint8_t k[64] = {0};
  if (key.size() > 64) {
    auto digest = Sha256::Hash(key);
    std::memcpy(k, digest.data(), digest.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ipad, 64);
  inner.Update(message);
  auto inner_digest = inner.Finish();
  Sha256 outer;
  outer.Update(opad, 64);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

}  // namespace crypto
}  // namespace shuffledp
