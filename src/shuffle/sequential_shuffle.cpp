#include "shuffle/sequential_shuffle.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>

#include "crypto/sha256.h"
#include "ldp/estimator.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace shuffledp {
namespace shuffle {

namespace {

// Payload carried inside the onion: packed report (8B) || tag (8B).
// Real users and fake reports use random tags; the server's spot-check
// dummies use HMAC-derived tags so the server can recognize its own
// payloads after shuffling (shufflers cannot distinguish them).
constexpr size_t kPayloadBytes = 16;

// Fixed client-encode chunk: per-chunk RNG seeds derive from the chunk's
// start index, so chunk boundaries must not depend on the worker count
// (see ThreadPool::ParallelForChunks). Keeps Collect bitwise reproducible
// across SHUFFLEDP_THREADS settings.
constexpr uint64_t kEncodeChunk = 4096;

// Blobs per EciesDecryptBatch call in the shuffler peels and the server's
// prepare stage: large enough to amortize the batch's two field
// inversions, small enough to spread a batch over the pool. The output
// does not depend on it.
constexpr uint64_t kDecryptChunk = 64;

Bytes MakePayload(uint64_t packed_report, uint64_t tag) {
  ByteWriter w(kPayloadBytes);
  w.PutU64(packed_report);
  w.PutU64(tag);
  return w.Release();
}

service::DecodedRow ParsePayload(const Bytes& payload) {
  service::DecodedRow row;
  ByteReader reader(payload);
  auto packed = reader.GetU64();
  if (!packed.ok()) return row;  // short payload: drop, don't abort
  row.report = ldp::UnpackReport(*packed);
  auto tag = reader.GetU64();
  row.tag = tag.ok() ? *tag : 0;
  row.valid = true;
  return row;
}

// Decrypts blobs[lo, hi) in kDecryptChunk batches on `pool` (serially when
// null), moving each blob out of `blobs`; out(i, result) receives row i's
// plaintext or error. Chunks write disjoint rows.
void DecryptChunks(
    ThreadPool* pool, const crypto::Scalar256& private_key,
    std::vector<Bytes>* blobs, uint64_t lo, uint64_t hi,
    const std::function<void(uint64_t, Result<Bytes>)>& out) {
  ForChunks(pool, lo, hi, kDecryptChunk, [&](uint64_t clo, uint64_t chi) {
    std::vector<Bytes> chunk(std::make_move_iterator(blobs->begin() + clo),
                             std::make_move_iterator(blobs->begin() + chi));
    std::vector<Result<Bytes>> plain =
        crypto::EciesDecryptBatch(private_key, chunk);
    for (uint64_t i = clo; i < chi; ++i) out(i, std::move(plain[i - clo]));
  });
}

}  // namespace

Result<SequentialShuffleResult> RunSequentialShuffle(
    const ldp::ScalarFrequencyOracle& oracle,
    const std::vector<uint64_t>& values, const SequentialShuffleConfig& config,
    crypto::SecureRandom* rng) {
  const uint64_t n = values.size();
  const uint32_t r = config.num_shufflers;
  if (r == 0) {
    return Status::InvalidArgument("SS: need at least one shuffler");
  }
  if (n == 0) return Status::InvalidArgument("SS: empty dataset");
  std::vector<ShufflerBehaviour> behaviours = config.behaviours;
  behaviours.resize(r, ShufflerBehaviour::kHonest);

  CostLedger ledger;
  SequentialShuffleResult result;

  // --- Setup: key material -------------------------------------------------
  crypto::EciesKeyPair server_kp = crypto::EciesGenerateKeyPair(rng);
  std::vector<crypto::EciesKeyPair> shuffler_kps;
  shuffler_kps.reserve(r);
  // Onion layer order: shuffler 1 peels first, server last.
  std::vector<crypto::P256Point> layers;
  for (uint32_t j = 0; j < r; ++j) {
    shuffler_kps.push_back(crypto::EciesGenerateKeyPair(rng));
    layers.push_back(shuffler_kps.back().public_key);
  }
  layers.push_back(server_kp.public_key);

  const Bytes spot_key = rng->RandomBytes(32);

  // --- User phase: encode + onion encrypt ----------------------------------
  // Encoding stays a per-chunk loop (cheap, deterministic per seed); the
  // onion layers run through the batched ECIES path, which shares the
  // generator's comb, builds each recipient's comb table once, and batches
  // the affine conversions across all reports.
  std::vector<Bytes> in_flight;
  {
    ComputeScope scope(&ledger, Role::kUser);
    std::vector<Bytes> payloads(n);
    // Chunk boundaries are fixed by kEncodeChunk — never by the pool
    // size — so the per-chunk seeds (and hence every report) are
    // identical whether this runs serially or on any number of workers.
    const uint64_t base_seed = rng->NextU64();
    ForChunks(config.pool, 0, n, kEncodeChunk, [&](uint64_t lo, uint64_t hi) {
      const uint64_t seed = base_seed ^ (lo * 0x9E3779B97F4A7C15ULL);
      Rng local_rng(seed);
      crypto::SecureRandom local_sec(seed ^ 0x5331AFULL);
      for (uint64_t i = lo; i < hi; ++i) {
        ldp::LdpReport rep = oracle.Encode(values[i], &local_rng);
        payloads[i] = MakePayload(ldp::PackReport(rep), local_sec.NextU64());
      }
    });
    crypto::SecureRandom onion_rng = rng->Fork();
    SHUFFLEDP_ASSIGN_OR_RETURN(
        in_flight,
        crypto::OnionEncryptBatch(layers, payloads, &onion_rng, config.pool));
  }

  // Spot-check dummies: the server plants accounts whose payloads it can
  // recognize. They are appended to the user stream (indistinguishable to
  // shufflers) and stripped by the streaming collector before estimation.
  std::vector<std::pair<ldp::LdpReport, uint64_t>> dummy_ids;
  {
    ComputeScope scope(&ledger, Role::kServer);
    Rng dummy_rng(rng->NextU64());
    std::vector<Bytes> dummy_payloads;
    for (uint64_t k = 0; k < config.spot_check_dummies; ++k) {
      ldp::LdpReport rep = oracle.MakeFakeReport(&dummy_rng);
      ByteWriter nonce;
      nonce.PutU64(k);
      auto mac = crypto::HmacSha256(spot_key, nonce.Release());
      uint64_t tag;
      std::memcpy(&tag, mac.data(), sizeof(tag));
      dummy_ids.emplace_back(rep, tag);
      dummy_payloads.push_back(MakePayload(ldp::PackReport(rep), tag));
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(
        std::vector<Bytes> dummy_blobs,
        crypto::OnionEncryptBatch(layers, dummy_payloads, rng, config.pool));
    in_flight.insert(in_flight.end(),
                     std::make_move_iterator(dummy_blobs.begin()),
                     std::make_move_iterator(dummy_blobs.end()));
  }

  // Users -> first shuffler.
  for (const Bytes& blob : in_flight) {
    ledger.RecordSend(Role::kUser, Role::kShuffler, blob.size());
  }

  // --- Shuffler chain -------------------------------------------------------
  const uint64_t fakes_per_shuffler =
      r == 0 ? 0 : config.fake_reports_total / r;
  uint64_t fakes_injected = 0;

  for (uint32_t j = 0; j < r; ++j) {
    ComputeScope scope(&ledger, Role::kShuffler);
    // Peel one onion layer from every blob; the first failure aborts.
    std::vector<Bytes> peeled(in_flight.size());
    std::mutex status_mu;
    Status peel_status = Status::OK();
    DecryptChunks(config.pool, shuffler_kps[j].private_key, &in_flight, 0,
                  in_flight.size(), [&](uint64_t i, Result<Bytes> inner) {
                    if (inner.ok()) {
                      peeled[i] = std::move(inner).value();
                      return;
                    }
                    std::lock_guard<std::mutex> lock(status_mu);
                    if (peel_status.ok()) peel_status = inner.status();
                  });
    if (!peel_status.ok()) return peel_status;
    in_flight = std::move(peeled);

    // Malicious behaviours.
    Rng misc_rng(rng->NextU64());
    crypto::SecureRandom fake_sec = rng->Fork();
    std::vector<crypto::P256Point> remaining_layers(
        layers.begin() + j + 1, layers.end());
    switch (behaviours[j]) {
      case ShufflerBehaviour::kReplaceReports: {
        ldp::LdpReport target;
        target.value = static_cast<uint32_t>(config.poison_target_value);
        std::vector<Bytes> poison_payloads(in_flight.size());
        for (auto& payload : poison_payloads) {
          payload = MakePayload(ldp::PackReport(target), fake_sec.NextU64());
        }
        SHUFFLEDP_ASSIGN_OR_RETURN(
            in_flight,
            crypto::OnionEncryptBatch(remaining_layers, poison_payloads,
                                      &fake_sec, config.pool));
        break;
      }
      case ShufflerBehaviour::kDropReports: {
        std::vector<Bytes> kept;
        for (size_t i = 0; i < in_flight.size(); ++i) {
          if (i % 2 == 0) kept.push_back(std::move(in_flight[i]));
        }
        in_flight = std::move(kept);
        break;
      }
      case ShufflerBehaviour::kHonest:
      case ShufflerBehaviour::kBiasedFakes:
        break;
    }

    // Inject fake reports (uniform if honest, biased if malicious).
    uint64_t quota = (j + 1 == r)
                         ? config.fake_reports_total - fakes_injected
                         : fakes_per_shuffler;
    std::vector<Bytes> fake_payloads(quota);
    for (uint64_t k = 0; k < quota; ++k) {
      ldp::LdpReport rep;
      if (behaviours[j] == ShufflerBehaviour::kBiasedFakes) {
        rep.value = static_cast<uint32_t>(config.poison_target_value);
      } else {
        rep = oracle.MakeFakeReport(&misc_rng);
      }
      fake_payloads[k] = MakePayload(ldp::PackReport(rep), fake_sec.NextU64());
    }
    SHUFFLEDP_ASSIGN_OR_RETURN(
        std::vector<Bytes> fake_blobs,
        crypto::OnionEncryptBatch(remaining_layers, fake_payloads, &fake_sec,
                                  config.pool));
    in_flight.insert(in_flight.end(),
                     std::make_move_iterator(fake_blobs.begin()),
                     std::make_move_iterator(fake_blobs.end()));
    fakes_injected += quota;

    // Shuffle.
    Rng shuffle_rng(rng->NextU64());
    shuffle_rng.Shuffle(&in_flight);

    // Forward to the next hop.
    Role next = (j + 1 == r) ? Role::kServer : Role::kShuffler;
    for (const Bytes& blob : in_flight) {
      ledger.RecordSend(Role::kShuffler, next, blob.size());
    }
  }

  // --- Server: streaming peel + spot-check + count + estimate --------------
  // The monolithic peel-everything-then-count pass is replaced by the
  // sharded streaming pipeline: blobs are offered in fixed-size batches.
  // Each batch's prepare stage batch-decrypts and parses its rows on the
  // pool (the PEOS packed-decrypt pattern); the per-row decode hands the
  // stored row, or its decrypt error, to the collector, which counts
  // supports domain-sharded across the pool and strips the registered
  // spot-check dummies before estimation.
  {
    service::StreamingOptions stream_opts = config.streaming;
    stream_opts.pool = config.pool;
    service::StreamingCollector collector(oracle, stream_opts);
    collector.ExpectDummies(dummy_ids);

    const uint64_t total = in_flight.size();
    auto blobs = std::make_shared<std::vector<Bytes>>(std::move(in_flight));
    // Rows filled by each batch's prepare stage, read (once per row) by the
    // same batch's decode.
    auto rows = std::make_shared<std::vector<Result<service::DecodedRow>>>(
        total, Status::Internal("SS: row decoded before its batch decrypted"));
    const crypto::Scalar256 server_priv = server_kp.private_key;
    SHUFFLEDP_RETURN_NOT_OK(collector.OfferIndexedPrepared(
        total,
        [blobs, rows, server_priv](uint64_t lo, uint64_t hi,
                                   ThreadPool* fan_out) -> Status {
          DecryptChunks(fan_out, server_priv, blobs.get(), lo, hi,
                        [&rows](uint64_t i, Result<Bytes> payload) {
                          if (payload.ok()) {
                            (*rows)[i] = ParsePayload(*payload);
                          } else {
                            (*rows)[i] = payload.status();
                          }
                        });
          return Status::OK();
        },
        [rows](uint64_t row_index) -> Result<service::DecodedRow> {
          return std::move((*rows)[row_index]);
        }));

    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::RoundResult round,
        collector.FinishRound(n, config.fake_reports_total,
                              service::Calibration::kStandard));
    ledger.RecordCompute(Role::kServer, round.stats.busy_seconds);
    result.spot_check_passed = round.spot_check_passed;
    result.reports_at_server = round.reports_decoded;
    result.estimates = std::move(round.estimates);
    result.streaming = round.stats;
  }

  result.costs = SummarizeCosts(ledger, n, r);
  return result;
}

}  // namespace shuffle
}  // namespace shuffledp
