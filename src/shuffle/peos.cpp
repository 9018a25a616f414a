#include "shuffle/peos.h"

#include <cassert>
#include <mutex>

#include "crypto/secret_sharing.h"
#include "ldp/estimator.h"
#include "util/rng.h"

namespace shuffledp {
namespace shuffle {

namespace {

// Fixed user-phase chunk size; seeds derive from chunk start indices so
// the chunking must not depend on the worker count (ForChunks).
constexpr uint64_t kUserChunk = 1024;

}  // namespace

Result<PeosResult> RunPeos(const ldp::ScalarFrequencyOracle& oracle,
                           const std::vector<uint64_t>& values,
                           const PeosConfig& config,
                           crypto::SecureRandom* rng) {
  const uint64_t n = values.size();
  const uint32_t r = config.num_shufflers;
  if (n == 0) return Status::InvalidArgument("PEOS: empty dataset");
  if (r < 2) return Status::InvalidArgument("PEOS: need r >= 2 shufflers");
  // The share group is Z_{2^B} where B is the oracle's padded ordinal
  // width: uniform B-bit fake shares then reconstruct to uniform ordinal
  // values (see frequency_oracle.h). config.ell is validated against it.
  const unsigned share_bits = oracle.PackedBits();
  if (share_bits < 1 || share_bits > 64) {
    return Status::InvalidArgument("PEOS: oracle ordinal width out of range");
  }
  if (config.ell < share_bits) {
    return Status::InvalidArgument(
        "PEOS: ell smaller than the oracle's packed ordinal width");
  }
  std::vector<PeosShufflerBehaviour> behaviours = config.behaviours;
  behaviours.resize(r, PeosShufflerBehaviour::kHonest);

  CostLedger ledger;
  PeosResult result;
  const uint64_t total = n + config.fake_reports;
  const unsigned ell = share_bits;  // share over exactly the ordinal group
  const uint64_t mask =
      ell >= 64 ? ~uint64_t{0} : ((uint64_t{1} << ell) - 1);

  // --- Setup: server AHE key pair ------------------------------------------
  crypto::PaillierKeyPair server_keys;
  {
    ComputeScope scope(&ledger, Role::kServer);
    auto kp = crypto::PaillierGenerateKeyPair(config.paillier_bits, rng);
    if (!kp.ok()) return kp.status();
    server_keys = std::move(kp).value();
  }
  // The randomizer pool is charged to the shufflers: the EOS re-masks and
  // their fake-share encryptions are its main use (users draw from it too,
  // one mask per upload).
  std::unique_ptr<crypto::RandomizerPool> pool;
  if (config.use_randomizer_pool) {
    ComputeScope scope(&ledger, Role::kShuffler);
    pool = std::make_unique<crypto::RandomizerPool>(
        server_keys.pub, config.randomizer_pool_size, rng,
        config.randomizer_mode, config.pool);
  }
  const uint64_t cipher_bytes = server_keys.pub.CiphertextBytes();

  // --- User phase: encode, share, encrypt share r ---------------------------
  EosState state;
  state.plain.ell = ell;
  state.plain.columns.assign(r - 1 + 1,
                             std::vector<uint64_t>(total, 0));
  // Column layout: columns[0..r-2] are shufflers 1..r-1's plaintext
  // shares; columns[r-1] is shuffler r's *local* plaintext column, which
  // stays all-zero for user rows (shuffler r receives only ciphertexts)
  // and carries its own fake-share contributions.
  state.cipher_column.resize(total);
  state.e_holder = r - 1;

  {
    ComputeScope scope(&ledger, Role::kUser);
    std::mutex status_mu;
    Status enc_status = Status::OK();
    auto user_range = [&](uint64_t lo, uint64_t hi, uint64_t seed) {
      Rng local_rng(seed);
      crypto::SecureRandom local_sec(seed ^ 0xFEEDFACEULL);
      for (uint64_t i = lo; i < hi; ++i) {
        ldp::LdpReport rep = oracle.Encode(values[i], &local_rng);
        auto shares = crypto::SplitShares2Ell(oracle.PackOrdinal(rep), r,
                                              ell, &local_sec);
        for (uint32_t j = 0; j + 1 < r; ++j) {
          state.plain.columns[j][i] = shares[j];
        }
        Result<crypto::PaillierCiphertext> c =
            pool != nullptr
                ? Result<crypto::PaillierCiphertext>(
                      pool->EncryptFastU64(shares[r - 1], &local_sec))
                : server_keys.pub.EncryptU64(shares[r - 1], &local_sec);
        if (!c.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          enc_status = c.status();
          return;
        }
        state.cipher_column[i] = std::move(c).value();
      }
    };
    // Fixed-size chunks keep the per-chunk seeds — and hence every
    // report and share — independent of the pool's worker count.
    const uint64_t base_seed = rng->NextU64();
    ForChunks(config.pool, 0, n, kUserChunk, [&](uint64_t lo, uint64_t hi) {
      user_range(lo, hi, base_seed ^ (lo * 0x9E3779B97F4A7C15ULL + 1));
    });
    if (!enc_status.ok()) return enc_status;
  }
  // Per-user upload: r − 1 plaintext shares + 1 ciphertext.
  ledger.RecordSend(Role::kUser, Role::kShuffler,
                    n * ((r - 1) * 8 + cipher_bytes));

  // --- Shufflers create fake-report shares ----------------------------------
  {
    ComputeScope scope(&ledger, Role::kShuffler);
    // Every shuffler contributes one uniform share; the sum over honest
    // shufflers is uniform regardless of what malicious ones pick
    // (Algorithm 1 + §VI-A2 masking argument). Shares are drawn serially
    // from the protocol rng; the Paillier encryptions of shuffler r's
    // column are independent per row and run on the thread pool, lane-
    // blocked through the batch kernels when the randomizer pool is on.
    std::vector<uint64_t> share_r_column(config.fake_reports);
    for (uint64_t k = 0; k < config.fake_reports; ++k) {
      const uint64_t row = n + k;
      for (uint32_t j = 0; j + 1 < r; ++j) {
        uint64_t share =
            behaviours[j] == PeosShufflerBehaviour::kBiasedFakeShares
                ? (config.poison_target_packed & mask)
                : (rng->NextU64() & mask);
        state.plain.columns[j][row] = share;
      }
      share_r_column[k] =
          behaviours[r - 1] == PeosShufflerBehaviour::kBiasedFakeShares
              ? (config.poison_target_packed & mask)
              : (rng->NextU64() & mask);
    }
    std::mutex status_mu;
    Status enc_status = Status::OK();
    auto encrypt_range = [&](uint64_t lo, uint64_t hi, uint64_t seed) {
      crypto::SecureRandom local_sec(seed ^ 0xFA4E5EEDULL);
      if (pool != nullptr) {
        pool->EncryptFastManyU64(hi - lo, &share_r_column[lo], &local_sec,
                                 &state.cipher_column[n + lo]);
        return;
      }
      for (uint64_t k = lo; k < hi; ++k) {
        Result<crypto::PaillierCiphertext> c =
            server_keys.pub.EncryptU64(share_r_column[k], &local_sec);
        if (!c.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          enc_status = c.status();
          return;
        }
        state.cipher_column[n + k] = std::move(c).value();
      }
    };
    const uint64_t base_seed = rng->NextU64();
    ForChunks(config.pool, 0, config.fake_reports, kUserChunk,
              [&](uint64_t lo, uint64_t hi) {
                encrypt_range(lo, hi,
                              base_seed ^ (lo * 0x9E3779B97F4A7C15ULL));
              });
    if (!enc_status.ok()) return enc_status;
  }

  // --- EOS -------------------------------------------------------------------
  EosOptions eos_opts;
  eos_opts.public_key = &server_keys.pub;
  eos_opts.pool = pool.get();
  eos_opts.thread_pool = config.pool;
  SHUFFLEDP_RETURN_NOT_OK(
      RunEncryptedObliviousShuffle(&state, eos_opts, rng, &ledger));

  // --- Shufflers -> server ----------------------------------------------------
  ledger.RecordSend(Role::kShuffler, Role::kServer,
                    (r - 1) * total * 8 /* plaintext columns */);
  ledger.RecordSend(Role::kShuffler, Role::kServer,
                    total * cipher_bytes /* ciphertext column */);

  // --- Server: streaming decrypt + reconstruct + estimate -------------------
  // Rows are offered to the sharded streaming collector in fixed-size
  // batches; its consumer fans the Paillier decryptions and the
  // domain-sharded support counting out across the pool. Padding-region
  // ordinals (possible only when the ordinal space is not padding-free)
  // and malformed rows are dropped as invalid and accounted for by the
  // ordinal calibration.
  {
    service::StreamingOptions stream_opts = config.streaming;
    stream_opts.pool = config.pool;
    service::StreamingCollector collector(oracle, stream_opts);

    const ldp::ScalarFrequencyOracle* oracle_ptr = &oracle;
    const crypto::PaillierPrivateKey* priv = &server_keys.priv;
    const EosState* state_ptr = &state;
    // Captured pointers outlive the pipeline: FinishRound below drains
    // the queue before `state` or the keys leave scope.
    //
    // Shared by both decode paths: fold the plaintext share columns into
    // the recovered encrypted share and unpack the ordinal.
    auto reconstruct = [oracle_ptr, state_ptr, mask](
                           uint64_t row_index,
                           uint64_t enc_share) -> Result<service::DecodedRow> {
      uint64_t sum = enc_share;
      for (uint32_t j = 0; j < state_ptr->plain.num_shufflers(); ++j) {
        sum = (sum + state_ptr->plain.columns[j][row_index]) & mask;
      }
      service::DecodedRow row;
      auto rep = oracle_ptr->UnpackOrdinal(sum);
      if (!rep.ok()) return row;  // padding ordinal: drop, don't abort
      row.report = *rep;
      row.valid = true;
      return row;
    };
    if (config.packed_decryption) {
      // Slot layout for the packed decryption: the encrypted share starts
      // < 2^ell and every EOS round homomorphically adds one more ell-bit
      // mask adjustment (the invariant EosRounds documents), so the
      // integer plaintext of a row is < (eos_rounds + 1) * 2^ell — give
      // each slot that headroom plus a safety bit.
      const uint64_t eos_rounds = EosRounds(r);
      unsigned extra = 0;
      while ((uint64_t{1} << extra) < eos_rounds + 1) ++extra;
      const unsigned slot_bits = ell + extra + 1;
      const uint64_t group =
          static_cast<uint64_t>(priv->PackedSlotCapacity(slot_bits));
      // Shares recovered by the batch prepare stage, read by the
      // (crypto-free) per-row decode closures of the same batch.
      auto shares = std::make_shared<std::vector<uint64_t>>(total);
      SHUFFLEDP_RETURN_NOT_OK(collector.OfferIndexedPrepared(
          total,
          [priv, state_ptr, shares, slot_bits, ell, group](
              uint64_t lo, uint64_t hi, ThreadPool* fan_out) -> Status {
            std::mutex status_mu;
            Status status = Status::OK();
            // One lane-block of pack groups per fixed-size chunk: the
            // batch decryption splits a chunk into balanced groups (the
            // fewest that fit the capacity, rounded up to whole 8-lane
            // blocks), so the batch's ragged last chunk also runs full
            // kernel blocks instead of a portable tail. Boundaries depend
            // only on the batch slicing, never on the worker count, so
            // the recovered shares — and the estimates — stay bitwise
            // reproducible across SHUFFLEDP_THREADS settings (and across
            // kernel backends, which all return canonical values).
            ForChunks(fan_out, lo, hi,
                      group * crypto::MontgomeryCtx::kMaxBatchLanes,
                      [&](uint64_t glo, uint64_t ghi) {
                        Status st = priv->DecryptPackedMod2EllBatch(
                            &state_ptr->cipher_column[glo], ghi - glo,
                            slot_bits, ell, shares->data() + glo);
                        if (!st.ok()) {
                          std::lock_guard<std::mutex> lock(status_mu);
                          if (status.ok()) status = st;
                        }
                      });
            return status;
          },
          [reconstruct,
           shares](uint64_t row_index) -> Result<service::DecodedRow> {
            return reconstruct(row_index, (*shares)[row_index]);
          }));
    } else {
      SHUFFLEDP_RETURN_NOT_OK(collector.OfferIndexed(
          total,
          [reconstruct, priv, state_ptr,
           ell](uint64_t row_index) -> Result<service::DecodedRow> {
            SHUFFLEDP_ASSIGN_OR_RETURN(
                uint64_t enc_share,
                priv->DecryptMod2Ell(state_ptr->cipher_column[row_index],
                                     ell));
            return reconstruct(row_index, enc_share);
          }));
    }

    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::RoundResult round,
        collector.FinishRound(n, config.fake_reports,
                              service::Calibration::kOrdinal));
    ledger.RecordCompute(Role::kServer, round.stats.busy_seconds);
    result.reports_decoded = round.reports_decoded;
    result.reports_invalid = round.reports_invalid;
    result.estimates = std::move(round.estimates);
    result.streaming = round.stats;
  }

  result.costs = SummarizeCosts(ledger, n, r);
  return result;
}

}  // namespace shuffle
}  // namespace shuffledp
