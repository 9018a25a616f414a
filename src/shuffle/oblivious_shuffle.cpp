#include "shuffle/oblivious_shuffle.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/rng.h"

namespace shuffledp {
namespace shuffle {

namespace {

inline uint64_t Mask(unsigned ell) {
  return ell >= 64 ? ~uint64_t{0} : ((uint64_t{1} << ell) - 1);
}

// Applies `perm` to `column` in place: new[i] = old[perm[i]].
template <typename T>
void ApplyPermutation(const std::vector<uint32_t>& perm,
                      std::vector<T>* column) {
  std::vector<T> out(column->size());
  for (size_t i = 0; i < perm.size(); ++i) {
    out[i] = std::move((*column)[perm[i]]);
  }
  *column = std::move(out);
}

}  // namespace

std::vector<std::vector<uint32_t>> AllSubsets(uint32_t r, uint32_t t) {
  std::vector<std::vector<uint32_t>> out;
  std::vector<uint32_t> subset(t);
  // Lexicographic enumeration of t-combinations of {0..r-1}.
  for (uint32_t i = 0; i < t; ++i) subset[i] = i;
  for (;;) {
    out.push_back(subset);
    // Advance.
    int pos = static_cast<int>(t) - 1;
    while (pos >= 0 &&
           subset[static_cast<size_t>(pos)] ==
               r - t + static_cast<uint32_t>(pos)) {
      --pos;
    }
    if (pos < 0) break;
    ++subset[static_cast<size_t>(pos)];
    for (uint32_t i = static_cast<uint32_t>(pos) + 1; i < t; ++i) {
      subset[i] = subset[i - 1] + 1;
    }
  }
  return out;
}

uint64_t EosRounds(uint32_t r) {
  const uint32_t t = r / 2 + 1;  // must match RunEncryptedObliviousShuffle
  uint64_t count = 1;
  for (uint32_t i = 1; i <= t; ++i) {
    count = count * (r - t + i) / i;  // exact: C(k, i) divides the product
  }
  return count;
}

std::vector<uint64_t> ShareMatrix::Reconstruct() const {
  const uint64_t mask = Mask(ell);
  std::vector<uint64_t> secrets(num_secrets(), 0);
  for (const auto& column : columns) {
    for (size_t i = 0; i < column.size(); ++i) {
      secrets[i] = (secrets[i] + column[i]) & mask;
    }
  }
  return secrets;
}

Status RunObliviousShuffle(ShareMatrix* shares, crypto::SecureRandom* rng,
                           CostLedger* ledger,
                           std::vector<uint32_t>* composed_perm) {
  const uint32_t r = shares->num_shufflers();
  const uint64_t n = shares->num_secrets();
  if (r < 2) return Status::InvalidArgument("oblivious shuffle: need r >= 2");
  const uint32_t t = r / 2 + 1;
  const uint64_t mask = Mask(shares->ell);

  if (composed_perm != nullptr) {
    composed_perm->resize(n);
    for (uint64_t i = 0; i < n; ++i) (*composed_perm)[i] = static_cast<uint32_t>(i);
  }

  for (const auto& hiders : AllSubsets(r, t)) {
    ComputeScope scope(ledger, Role::kShuffler);
    std::vector<bool> is_hider(r, false);
    for (uint32_t h : hiders) is_hider[h] = true;

    // 1. Seekers re-share their columns to the hiders.
    for (uint32_t s = 0; s < r; ++s) {
      if (is_hider[s]) continue;
      auto& col = shares->columns[s];
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t remaining = col[i];
        for (uint32_t k = 0; k + 1 < t; ++k) {
          uint64_t part = rng->NextU64() & mask;
          shares->columns[hiders[k]][i] =
              (shares->columns[hiders[k]][i] + part) & mask;
          remaining = (remaining - part) & mask;
        }
        shares->columns[hiders[t - 1]][i] =
            (shares->columns[hiders[t - 1]][i] + remaining) & mask;
        col[i] = 0;
      }
      if (ledger != nullptr) {
        ledger->RecordSend(Role::kShuffler, Role::kShuffler, t * n * 8);
      }
    }

    // 2. Hiders apply an agreed permutation.
    Rng perm_rng(rng->NextU64());
    std::vector<uint32_t> perm =
        perm_rng.Permutation(static_cast<uint32_t>(n));
    for (uint32_t h : hiders) {
      ApplyPermutation(perm, &shares->columns[h]);
    }
    if (composed_perm != nullptr) {
      ApplyPermutation(perm, composed_perm);
    }

    // 3. Hiders re-share everything back to all r shufflers.
    std::vector<std::vector<uint64_t>> next(r,
                                            std::vector<uint64_t>(n, 0));
    for (uint32_t h : hiders) {
      const auto& col = shares->columns[h];
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t remaining = col[i];
        for (uint32_t j = 0; j + 1 < r; ++j) {
          uint64_t part = rng->NextU64() & mask;
          next[j][i] = (next[j][i] + part) & mask;
          remaining = (remaining - part) & mask;
        }
        next[r - 1][i] = (next[r - 1][i] + remaining) & mask;
      }
      if (ledger != nullptr) {
        // r - 1 outgoing columns (the self-share stays local).
        ledger->RecordSend(Role::kShuffler, Role::kShuffler,
                           (r - 1) * n * 8);
      }
    }
    shares->columns = std::move(next);
  }
  return Status::OK();
}

Status RunEncryptedObliviousShuffle(EosState* state, const EosOptions& opts,
                                    crypto::SecureRandom* rng,
                                    CostLedger* ledger) {
  if (opts.public_key == nullptr) {
    return Status::InvalidArgument("EOS: missing Paillier public key");
  }
  ShareMatrix* shares = &state->plain;
  const uint32_t r = shares->num_shufflers();
  const uint64_t n = shares->num_secrets();
  if (r < 2) return Status::InvalidArgument("EOS: need r >= 2");
  if (state->cipher_column.size() != n) {
    return Status::InvalidArgument("EOS: cipher column has wrong length");
  }
  if (state->e_holder >= r) {
    return Status::InvalidArgument("EOS: e_holder out of range");
  }
  const uint32_t t = r / 2 + 1;
  const uint64_t mask = Mask(shares->ell);
  const crypto::PaillierPublicKey& pub = *opts.public_key;
  const uint64_t cipher_bytes = pub.CiphertextBytes();

  // Montgomery-resident ciphertext column: every C(r, t) round multiplies
  // each ciphertext by g^adjust and a re-randomization mask — both
  // available in Montgomery form — so the column enters the domain once
  // here, stays resident across all rounds (permutations just move limb
  // vectors), and exits once after the loop. The per-round work becomes
  // pure fused CIOS passes; the old per-round generic ModMul (a full
  // division-path multiply per ciphertext) disappears. Bitwise identical
  // to the plain-domain path: the same masks multiply mod N^2 and the
  // same rng draws happen in the same order (paillier_test pins this).
  // Entry and exit run in kMaxBatchLanes blocks through the batch
  // kernels and are charged to the shufflers like the rounds.
  // An uninitialized key (no context) keeps the legacy plain path.
  const crypto::MontgomeryCtx* mont_ctx = pub.n2_ctx();
  const size_t limbs = mont_ctx != nullptr ? mont_ctx->limbs() : 0;
  constexpr size_t kLanes = crypto::MontgomeryCtx::kMaxBatchLanes;
  std::vector<std::vector<uint64_t>> mont_column;
  // Lane-blocked pass over the column: `body(lo, kb, scratch)` handles
  // rows [lo, lo + kb), kb <= kLanes; thread-pool chunks are cut at whole
  // lane blocks, so only the column's last block can be short.
  auto for_lane_blocks = [&](const std::function<void(
                                 uint64_t, size_t,
                                 crypto::MontgomeryCtx::Scratch*)>& body) {
    uint64_t chunk = n;
    if (opts.thread_pool != nullptr) {
      const uint64_t chunks = uint64_t{opts.thread_pool->num_threads()} * 4;
      chunk = ((n + chunks - 1) / chunks + kLanes - 1) / kLanes * kLanes;
    }
    ForChunks(opts.thread_pool, 0, n, chunk, [&](uint64_t lo, uint64_t hi) {
      crypto::MontgomeryCtx::Scratch scratch(*mont_ctx);
      for (uint64_t i = lo; i < hi; i += kLanes) {
        body(i, static_cast<size_t>(std::min<uint64_t>(kLanes, hi - i)),
             &scratch);
      }
    });
  };
  if (mont_ctx != nullptr) {
    ComputeScope scope(ledger, Role::kShuffler);
    mont_column.assign(n, std::vector<uint64_t>(limbs));
    for_lane_blocks([&](uint64_t lo, size_t kb,
                        crypto::MontgomeryCtx::Scratch* scratch) {
      const crypto::BigInt* in[kLanes] = {};
      uint64_t* out[kLanes] = {};
      for (size_t l = 0; l < kb; ++l) {
        in[l] = &state->cipher_column[lo + l].value;
        out[l] = mont_column[lo + l].data();
      }
      mont_ctx->ToMontManyInto(kb, in, out, scratch);
    });
  }

  for (const auto& hiders : AllSubsets(r, t)) {
    ComputeScope scope(ledger, Role::kShuffler);
    std::vector<bool> is_hider(r, false);
    for (uint32_t h : hiders) is_hider[h] = true;

    // 1a. Seekers re-share plaintext columns to the hiders.
    for (uint32_t s = 0; s < r; ++s) {
      if (is_hider[s]) continue;
      auto& col = shares->columns[s];
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t remaining = col[i];
        for (uint32_t k = 0; k + 1 < t; ++k) {
          uint64_t part = rng->NextU64() & mask;
          shares->columns[hiders[k]][i] =
              (shares->columns[hiders[k]][i] + part) & mask;
          remaining = (remaining - part) & mask;
        }
        shares->columns[hiders[t - 1]][i] =
            (shares->columns[hiders[t - 1]][i] + remaining) & mask;
        col[i] = 0;
      }
      if (ledger != nullptr) {
        ledger->RecordSend(Role::kShuffler, Role::kShuffler, t * n * 8);
      }
    }

    // 1b. The ciphertext holder E re-splits its column: t − 1 uniform
    // plaintext mask vectors go to hiders, the homomorphically-adjusted
    // ciphertext vector goes to the new E (uniform among hiders).
    const uint32_t new_e = hiders[rng->UniformU64(t)];
    {
      std::vector<uint64_t> mask_sum(n, 0);
      uint32_t masks_sent = 0;
      for (uint32_t k = 0; k < t && masks_sent + 1 < t; ++k) {
        uint32_t h = hiders[k];
        if (h == new_e) continue;
        ++masks_sent;
        for (uint64_t i = 0; i < n; ++i) {
          uint64_t m = rng->NextU64() & mask;
          shares->columns[h][i] = (shares->columns[h][i] + m) & mask;
          mask_sum[i] = (mask_sum[i] + m) & mask;
        }
        if (ledger != nullptr) {
          ledger->RecordSend(Role::kShuffler, Role::kShuffler, n * 8);
        }
      }
      // c'_i = c_i + (2^ell − mask_sum_i): the subtraction wraps to 0
      // mod 2^ell after decryption (DESIGN.md §4 item 2).
      auto transform = [&](uint64_t lo, uint64_t hi,
                           crypto::SecureRandom* local) {
        if (mont_ctx != nullptr) {
          // Resident path: AddPlain + re-mask without ever leaving the
          // Montgomery domain (3–4 fused CIOS passes per ciphertext).
          crypto::MontgomeryCtx::Scratch scratch(*mont_ctx);
          if (opts.pool != nullptr) {
            // Lane-blocked: the AddPlain conversions/multiplies and the
            // pool masks run through the interleaved batch kernels. The
            // pool draws stay in scalar row order (lane l draws l-th),
            // so the column is bitwise identical to the per-row loop.
            constexpr size_t kLanes = crypto::MontgomeryCtx::kMaxBatchLanes;
            uint64_t* rows[kLanes];
            crypto::BigInt adjusts[kLanes];
            for (uint64_t i = lo; i < hi; i += kLanes) {
              const size_t kb =
                  static_cast<size_t>(std::min<uint64_t>(kLanes, hi - i));
              for (size_t l = 0; l < kb; ++l) {
                rows[l] = mont_column[i + l].data();
                adjusts[l] = crypto::BigInt((0 - mask_sum[i + l]) & mask);
              }
              pub.AddPlainMontManyInto(kb, rows, adjusts, &scratch);
              opts.pool->RerandomizeMontManyInto(kb, rows, local, &scratch);
            }
            return;
          }
          std::vector<uint64_t> fresh(limbs);
          for (uint64_t i = lo; i < hi; ++i) {
            uint64_t neg = (0 - mask_sum[i]) & mask;
            pub.AddPlainMontInto(mont_column[i].data(),
                                 crypto::BigInt(neg), &scratch);
            auto enc_zero = pub.Encrypt(crypto::BigInt(), local);
            assert(enc_zero.ok());
            mont_ctx->ToMontInto(enc_zero->value, fresh.data(), &scratch);
            mont_ctx->MulInto(mont_column[i].data(), fresh.data(),
                              mont_column[i].data(), &scratch);
          }
          return;
        }
        for (uint64_t i = lo; i < hi; ++i) {
          // (2^ell − s) mod 2^ell via unsigned wrap-around; adding it to
          // the ciphertext cancels the masks mod 2^ell after decryption.
          uint64_t neg = (0 - mask_sum[i]) & mask;
          crypto::BigInt adjust(neg);
          auto c = pub.AddPlain(state->cipher_column[i], adjust);
          if (opts.pool != nullptr) {
            c = opts.pool->Rerandomize(c, local);
          } else {
            auto enc_zero = pub.Encrypt(crypto::BigInt(), local);
            assert(enc_zero.ok());
            c = pub.Add(c, *enc_zero);
          }
          state->cipher_column[i] = std::move(c);
        }
      };
      if (opts.thread_pool != nullptr) {
        std::vector<crypto::SecureRandom> locals;
        const unsigned workers = opts.thread_pool->num_threads();
        locals.reserve(workers * 4);
        for (unsigned w = 0; w < workers * 4; ++w) {
          locals.push_back(rng->Fork());
        }
        // ParallelFor's chunking, with the chunk's index (not the order
        // in which workers happen to start chunks) choosing its rng, so
        // the column is a function of the worker count alone.
        const uint64_t chunks =
            std::max<uint64_t>(1, std::min<uint64_t>(n, locals.size()));
        const uint64_t chunk = (n + chunks - 1) / chunks;
        opts.thread_pool->ParallelForChunks(
            0, n, chunk, [&](uint64_t lo, uint64_t hi) {
              transform(lo, hi, &locals[lo / chunk]);
            });
      } else {
        transform(0, n, rng);
      }
      if (ledger != nullptr) {
        ledger->RecordSend(Role::kShuffler, Role::kShuffler,
                           n * cipher_bytes);
      }
    }
    state->e_holder = new_e;

    // 2. Hiders (and the new E) apply the agreed permutation.
    Rng perm_rng(rng->NextU64());
    std::vector<uint32_t> perm =
        perm_rng.Permutation(static_cast<uint32_t>(n));
    for (uint32_t h : hiders) {
      ApplyPermutation(perm, &shares->columns[h]);
    }
    if (mont_ctx != nullptr) {
      ApplyPermutation(perm, &mont_column);  // resident limbs just move
    } else {
      ApplyPermutation(perm, &state->cipher_column);
    }

    // 3. Hiders re-share plaintext columns back to all r shufflers.
    std::vector<std::vector<uint64_t>> next(r,
                                            std::vector<uint64_t>(n, 0));
    for (uint32_t h : hiders) {
      const auto& col = shares->columns[h];
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t remaining = col[i];
        for (uint32_t j = 0; j + 1 < r; ++j) {
          uint64_t part = rng->NextU64() & mask;
          next[j][i] = (next[j][i] + part) & mask;
          remaining = (remaining - part) & mask;
        }
        next[r - 1][i] = (next[r - 1][i] + remaining) & mask;
      }
      if (ledger != nullptr) {
        ledger->RecordSend(Role::kShuffler, Role::kShuffler,
                           (r - 1) * n * 8);
      }
    }
    shares->columns = std::move(next);
  }

  // Chain exit, the only FromMont of the whole shuffle: a batch multiply
  // by plain 1 is a Montgomery reduction and returns the canonical value,
  // and each limb vector then moves into its ciphertext.
  if (mont_ctx != nullptr) {
    ComputeScope scope(ledger, Role::kShuffler);
    std::vector<uint64_t> one(limbs, 0);
    one[0] = 1;
    for_lane_blocks([&](uint64_t lo, size_t kb,
                        crypto::MontgomeryCtx::Scratch* scratch) {
      const uint64_t* ones[kLanes] = {};
      uint64_t* rows[kLanes] = {};
      for (size_t l = 0; l < kb; ++l) {
        ones[l] = one.data();
        rows[l] = mont_column[lo + l].data();
      }
      mont_ctx->MulManyInto(kb, rows, ones, rows, scratch);
      for (size_t l = 0; l < kb; ++l) {
        state->cipher_column[lo + l].value =
            crypto::BigInt::FromLimbsLittleEndian(
                std::move(mont_column[lo + l]));
      }
    });
  }
  return Status::OK();
}

}  // namespace shuffle
}  // namespace shuffledp
