#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/paillier.h"
#include "crypto/secret_sharing.h"
#include "shuffle/oblivious_shuffle.h"
#include "tests/crypto/mont_backends.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace shuffle {
namespace {

// Shared 256-bit test key (key generation dominates test time otherwise).
class EosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new crypto::SecureRandom(uint64_t{424242});
    auto kp = crypto::PaillierGenerateKeyPair(256, rng_);
    ASSERT_TRUE(kp.ok());
    keys_ = new crypto::PaillierKeyPair(std::move(kp).value());
    pool_ = new crypto::RandomizerPool(keys_->pub, 8, rng_);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete keys_;
    delete rng_;
    pool_ = nullptr;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  // Builds an EOS state for `secrets`: r plaintext columns + encrypted
  // r-th share column (mirrors the PEOS user upload).
  static EosState MakeState(const std::vector<uint64_t>& secrets, uint32_t r,
                            unsigned ell) {
    EosState state;
    state.plain.ell = ell;
    state.plain.columns.assign(r,
                               std::vector<uint64_t>(secrets.size(), 0));
    state.cipher_column.resize(secrets.size());
    state.e_holder = r - 1;
    for (size_t i = 0; i < secrets.size(); ++i) {
      auto shares = crypto::SplitShares2Ell(secrets[i], r + 1, ell, rng_);
      for (uint32_t j = 0; j < r; ++j) state.plain.columns[j][i] = shares[j];
      auto c = keys_->pub.EncryptU64(shares[r], rng_);
      EXPECT_TRUE(c.ok());
      state.cipher_column[i] = std::move(c).value();
    }
    return state;
  }

  // Server-side reconstruction: plaintext columns + decrypted column.
  static std::vector<uint64_t> Reconstruct(const EosState& state,
                                           unsigned ell) {
    const uint64_t mask =
        ell >= 64 ? ~uint64_t{0} : ((uint64_t{1} << ell) - 1);
    std::vector<uint64_t> out = state.plain.Reconstruct();
    for (size_t i = 0; i < out.size(); ++i) {
      auto m = keys_->priv.DecryptMod2Ell(state.cipher_column[i], ell);
      EXPECT_TRUE(m.ok());
      out[i] = (out[i] + *m) & mask;
    }
    return out;
  }

  static crypto::SecureRandom* rng_;
  static crypto::PaillierKeyPair* keys_;
  static crypto::RandomizerPool* pool_;
};

crypto::SecureRandom* EosTest::rng_ = nullptr;
crypto::PaillierKeyPair* EosTest::keys_ = nullptr;
crypto::RandomizerPool* EosTest::pool_ = nullptr;

TEST_F(EosTest, PreservesMultisetWithPool) {
  std::vector<uint64_t> secrets = {11, 22, 33, 44, 55, 66, 77, 88};
  for (uint32_t r : {2u, 3u}) {
    EosState state = MakeState(secrets, r, 64);
    EosOptions opts;
    opts.public_key = &keys_->pub;
    opts.pool = pool_;
    CostLedger ledger;
    ASSERT_TRUE(
        RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
    auto out = Reconstruct(state, 64);
    auto sorted_in = secrets;
    std::sort(sorted_in.begin(), sorted_in.end());
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, sorted_in) << "r=" << r;
  }
}

TEST_F(EosTest, PreservesMultisetWithExactEncryption) {
  std::vector<uint64_t> secrets = {5, 6, 7, 8};
  EosState state = MakeState(secrets, 2, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = nullptr;  // fresh modexp per re-mask
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  auto out = Reconstruct(state, 64);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint64_t>{5, 6, 7, 8}));
}

TEST_F(EosTest, SmallEllGroupWraps) {
  // ell = 16: shares and masks all wrap mod 2^16.
  std::vector<uint64_t> secrets = {0xFFFF, 0x1234, 0, 42};
  EosState state = MakeState(secrets, 3, 16);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  auto out = Reconstruct(state, 16);
  auto sorted_in = secrets;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, sorted_in);
}

TEST_F(EosTest, CiphertextsAreRerandomizedEachRound) {
  std::vector<uint64_t> secrets = {9, 9, 9, 9};
  EosState state = MakeState(secrets, 2, 64);
  std::vector<crypto::BigInt> before;
  for (const auto& c : state.cipher_column) before.push_back(c.value);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  // No post-shuffle ciphertext should equal any pre-shuffle one.
  for (const auto& c : state.cipher_column) {
    for (const auto& b : before) {
      EXPECT_NE(c.value, b);
    }
  }
}

TEST_F(EosTest, EHolderEndsAmongHiders) {
  std::vector<uint64_t> secrets(10, 1);
  EosState state = MakeState(secrets, 3, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  EXPECT_LT(state.e_holder, 3u);
}

TEST_F(EosTest, RejectsBadConfigurations) {
  EosOptions no_key;
  EosState state = MakeState({1, 2}, 2, 64);
  CostLedger ledger;
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&state, no_key, rng_, &ledger).ok());

  EosOptions opts;
  opts.public_key = &keys_->pub;
  EosState bad_holder = MakeState({1, 2}, 2, 64);
  bad_holder.e_holder = 9;
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&bad_holder, opts, rng_, &ledger).ok());

  EosState short_cipher = MakeState({1, 2, 3}, 2, 64);
  short_cipher.cipher_column.pop_back();
  EXPECT_FALSE(
      RunEncryptedObliviousShuffle(&short_cipher, opts, rng_, &ledger).ok());
}

// Pins the final ciphertext column of one EOS run at a ragged n (not a
// multiple of the 8-lane block, nor of any worker chunking), for both pool
// modes, without a thread pool and with 1 and 4 workers, on every
// Montgomery backend. The column is the observable output of the
// Montgomery-resident chain (entry, per-round AddPlain + re-mask, exit);
// any representation change in it must leave these bytes alone.
TEST_F(EosTest, FinalCipherColumnPinnedAcrossModesWorkersAndBackends) {
  const size_t n = 1003;
  const uint32_t r = 3;
  const unsigned ell = 16;
  const crypto::RandomizerPool::Mode modes[] = {
      crypto::RandomizerPool::Mode::kPairwise,
      crypto::RandomizerPool::Mode::kFixedBase};
  // [mode][no pool, 1 worker, 4 workers]
  const uint64_t kExpect[2][3] = {
      {0x7f5b63639e694d6fULL, 0xfd58cd88c2c2d6b4ULL, 0xfefb673a23344921ULL},
      {0x3e95a3f5fe0539baULL, 0x016f93c038237146ULL, 0x023c21c38c3b111fULL},
  };
  ThreadPool one(1), four(4);
  ThreadPool* const fanouts[] = {nullptr, &one, &four};
  for (crypto::MontBackend backend : crypto::AvailableMontBackends()) {
    crypto::ScopedMontBackend scoped(backend);
    for (size_t m = 0; m < 2; ++m) {
      for (size_t w = 0; w < 3; ++w) {
        SCOPED_TRACE(std::string(crypto::MontBackendName(backend)) +
                     " mode " + std::to_string(m) + " fanout " +
                     std::to_string(w));
        crypto::SecureRandom rng(uint64_t{9000 + m});
        crypto::RandomizerPool pool(keys_->pub, 8, &rng, modes[m]);
        EosState state;
        state.plain.ell = ell;
        state.plain.columns.assign(r, std::vector<uint64_t>(n, 0));
        state.cipher_column.resize(n);
        state.e_holder = r - 1;
        for (size_t i = 0; i < n; ++i) {
          auto shares = crypto::SplitShares2Ell(i * 37, r + 1, ell, &rng);
          for (uint32_t j = 0; j < r; ++j) {
            state.plain.columns[j][i] = shares[j];
          }
          state.cipher_column[i] = pool.EncryptFastU64(shares[r], &rng);
        }
        EosOptions opts;
        opts.public_key = &keys_->pub;
        opts.pool = &pool;
        opts.thread_pool = fanouts[w];
        ASSERT_TRUE(
            RunEncryptedObliviousShuffle(&state, opts, &rng, nullptr).ok());
        uint64_t h = 0;
        for (const auto& c : state.cipher_column) {
          const Bytes b = keys_->pub.SerializeCiphertext(c);
          h = XxHash64(b.data(), b.size(), h);
        }
        EXPECT_EQ(h, kExpect[m][w]);
      }
    }
  }
}

TEST_F(EosTest, CommunicationIncludesCiphertextTraffic) {
  std::vector<uint64_t> secrets(20, 3);
  EosState state = MakeState(secrets, 3, 64);
  EosOptions opts;
  opts.public_key = &keys_->pub;
  opts.pool = pool_;
  CostLedger ledger;
  ASSERT_TRUE(
      RunEncryptedObliviousShuffle(&state, opts, rng_, &ledger).ok());
  // Each of the C(3,2)=3 rounds ships the n-ciphertext column once.
  uint64_t min_cipher_traffic =
      3ull * secrets.size() * keys_->pub.CiphertextBytes();
  EXPECT_GE(ledger.bytes_sent(Role::kShuffler), min_cipher_traffic);
}

}  // namespace
}  // namespace shuffle
}  // namespace shuffledp
