// Streaming-vs-monolithic server ingestion throughput.
//
// The seed repo collected every report into one in-memory vector and then
// aggregated it in a single pass; the service layer replaces that with the
// sharded streaming pipeline (src/service/). This bench measures both
// architectures on the same inputs and writes the rows run_benches.sh
// tracks as BENCH_streaming.json:
//
//   *-plain  rows: n pre-encoded reports (default n = 10^6, d = 1024 — the
//            ROADMAP scale target), server-side aggregation only. SOLH
//            runs at several hash ranges (d' = 2, the --dprime default,
//            and a non-power-of-2) since the support kernels take
//            different modulo paths per shape.
//   *-ecies  rows: enc_n ECIES-encrypted reports (default 20,000), so the
//            decrypt stage dominates and the pipeline's decode fan-out +
//            overlap shows up.
//   hash-kernel rows: the raw bulk support kernel (no pipeline, no
//            decode) on the active backend and on the forced-scalar
//            reference — the two bound what aggregation can do.
//
// Every row carries the decode/support-eval split from StreamingStats and
// the support-kernel backend that produced it.
//
// Flags: --n=1000000, --enc_n=20000, --d=1024, --dprime=16, --eps=3.0,
// --batch=4096, --queue=64, --shards=0 (auto), --smoke (tiny sizes for CI),
// --json=PATH, --solh_min_rate=0 (rows/s; exit nonzero when the streaming
// SOLH row at the default d' falls under it — the smoke-job regression
// budget).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "crypto/ecies.h"
#include "crypto/secure_random.h"
#include "ldp/estimator.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "ldp/support_kernels.h"
#include "service/streaming_collector.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace shuffledp;
using bench::Flags;

namespace {

struct Row {
  std::string mode;
  std::string oracle;
  std::string backend;  // support-kernel backend the row aggregated on
  uint64_t n = 0;
  uint64_t d = 0;
  uint64_t dprime = 0;  // report domain (d for GRR)
  double wall_s = 0.0;
  double rows_per_s = 0.0;
  double decode_s = 0.0;        // pipeline rows only
  double support_eval_s = 0.0;  // pipeline rows only
  uint64_t rows_aggregated = 0;
  uint64_t backpressure_waits = 0;
  uint64_t queue_high_water = 0;
};

std::vector<ldp::LdpReport> EncodeAll(const ldp::ScalarFrequencyOracle& oracle,
                                      uint64_t n, Rng* rng) {
  std::vector<ldp::LdpReport> reports;
  reports.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    reports.push_back(oracle.Encode(i % oracle.domain_size(), rng));
  }
  return reports;
}

const char* ActiveBackendName() {
  return ldp::SupportBackendName(ldp::ActiveSupportBackend());
}

Row RunMonolithicPlain(const ldp::ScalarFrequencyOracle& oracle,
                       const std::vector<ldp::LdpReport>& reports,
                       ThreadPool* pool) {
  WallTimer timer;
  auto supports = ldp::SupportCountsFullDomain(oracle, reports, pool);
  auto estimates =
      ldp::CalibrateEstimates(oracle, supports, reports.size(), 0);
  Row row;
  row.mode = "monolithic-plain";
  row.oracle = oracle.Name();
  row.backend = ActiveBackendName();
  row.n = reports.size();
  row.d = oracle.domain_size();
  row.dprime = oracle.report_domain();
  row.wall_s = timer.ElapsedSeconds();
  row.rows_per_s = static_cast<double>(reports.size()) / row.wall_s;
  // Keep the estimate alive so the whole pass cannot be optimized out.
  if (estimates.empty()) std::printf("unexpected empty estimate\n");
  return row;
}

Row RunStreamingPlain(const ldp::ScalarFrequencyOracle& oracle,
                      const std::vector<ldp::LdpReport>& reports,
                      const service::StreamingOptions& opts) {
  service::StreamingCollector collector(oracle, opts);
  WallTimer timer;
  auto offer = collector.OfferReports(reports);
  auto round = collector.FinishRound(reports.size(), 0,
                                     service::Calibration::kStandard);
  Row row;
  row.mode = "streaming-plain";
  row.oracle = oracle.Name();
  row.backend = ActiveBackendName();
  row.n = reports.size();
  row.d = oracle.domain_size();
  row.dprime = oracle.report_domain();
  row.wall_s = timer.ElapsedSeconds();
  row.rows_per_s = static_cast<double>(reports.size()) / row.wall_s;
  if (!offer.ok() || !round.ok()) {
    std::fprintf(stderr, "streaming-plain failed: %s\n",
                 (!offer.ok() ? offer : round.status()).ToString().c_str());
    return row;
  }
  row.decode_s = round->stats.decode_seconds;
  row.support_eval_s = round->stats.support_eval_seconds;
  row.rows_aggregated = round->stats.rows_aggregated;
  row.backpressure_waits = round->stats.backpressure_waits;
  row.queue_high_water = round->stats.queue_high_water;
  return row;
}

/// Raw bulk-kernel row: no pipeline, no decode — just
/// AccumulateLocalHashSupports over the whole batch × domain. `backend`
/// is installed for the duration of the measurement.
Row RunHashKernel(const ldp::LocalHash& oracle,
                  const std::vector<ldp::LdpReport>& reports,
                  ldp::SupportBackend backend) {
  const ldp::SupportBackend saved = ldp::ActiveSupportBackend();
  const ldp::SupportBackend installed = ldp::SetSupportBackend(backend);
  const uint64_t d = oracle.domain_size();
  std::vector<uint64_t> counts(d, 0);
  WallTimer timer;
  oracle.AccumulateSupports(reports.data(), reports.size(), 0, d,
                            counts.data());
  Row row;
  row.wall_s = timer.ElapsedSeconds();
  row.mode = "hash-kernel";
  row.oracle = oracle.Name();
  row.backend = ldp::SupportBackendName(installed);
  row.n = reports.size();
  row.d = d;
  row.dprime = oracle.report_domain();
  row.rows_per_s = static_cast<double>(reports.size()) / row.wall_s;
  row.rows_aggregated = reports.size();
  row.support_eval_s = row.wall_s;
  ldp::SetSupportBackend(saved);
  uint64_t sum = 0;
  for (uint64_t c : counts) sum += c;
  if (sum == 0) std::printf("unexpected zero support mass\n");
  return row;
}

std::vector<Bytes> EncryptAll(const ldp::ScalarFrequencyOracle& oracle,
                              const std::vector<ldp::LdpReport>& reports,
                              const crypto::P256Point& server_pub,
                              crypto::SecureRandom* rng, ThreadPool* pool) {
  std::vector<Bytes> payloads(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    ByteWriter w(16);
    w.PutU64(ldp::PackReport(reports[i]));
    w.PutU64(rng->NextU64());
    payloads[i] = w.Release();
  }
  (void)oracle;
  auto blobs = crypto::EciesEncryptBatch(server_pub, payloads, rng, pool);
  if (!blobs.ok()) {
    std::fprintf(stderr, "encrypt failed: %s\n",
                 blobs.status().ToString().c_str());
    return {};
  }
  return std::move(blobs).value();
}

// Blobs per EciesDecryptBatch call, as in the SS protocol's server.
constexpr uint64_t kDecryptChunk = 64;

// Batch-decrypts blobs[lo, hi) in kDecryptChunk chunks on `pool` and
// parses each payload into (*rows)[i]; rows that fail stay invalid.
void DecryptReports(const std::vector<Bytes>& blobs, uint64_t lo, uint64_t hi,
                    const crypto::Scalar256& priv, ThreadPool* pool,
                    std::vector<service::DecodedRow>* rows) {
  ForChunks(pool, lo, hi, kDecryptChunk, [&](uint64_t clo, uint64_t chi) {
    std::vector<Bytes> chunk(blobs.begin() + clo, blobs.begin() + chi);
    auto payloads = crypto::EciesDecryptBatch(priv, chunk);
    for (uint64_t i = clo; i < chi; ++i) {
      const Result<Bytes>& payload = payloads[i - clo];
      if (!payload.ok()) continue;
      ByteReader reader(*payload);
      auto packed = reader.GetU64();
      if (!packed.ok()) continue;
      (*rows)[i].report = ldp::UnpackReport(*packed);
      (*rows)[i].valid = true;
    }
  });
}

Row RunMonolithicEcies(const ldp::ScalarFrequencyOracle& oracle,
                       const std::vector<Bytes>& blobs,
                       const crypto::Scalar256& priv, ThreadPool* pool) {
  WallTimer timer;
  std::vector<service::DecodedRow> decoded(blobs.size());
  DecryptReports(blobs, 0, blobs.size(), priv, pool, &decoded);
  std::vector<ldp::LdpReport> reports(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) reports[i] = decoded[i].report;
  auto supports = ldp::SupportCountsFullDomain(oracle, reports, pool);
  Row row;
  row.mode = "monolithic-ecies";
  row.oracle = oracle.Name();
  row.backend = ActiveBackendName();
  row.n = blobs.size();
  row.d = oracle.domain_size();
  row.dprime = oracle.report_domain();
  row.wall_s = timer.ElapsedSeconds();
  row.rows_per_s = static_cast<double>(blobs.size()) / row.wall_s;
  if (supports.empty()) std::printf("unexpected empty supports\n");
  return row;
}

Row RunStreamingEcies(const ldp::ScalarFrequencyOracle& oracle,
                      std::vector<Bytes> blobs, const crypto::Scalar256& priv,
                      const service::StreamingOptions& opts) {
  service::StreamingCollector collector(oracle, opts);
  const uint64_t n = blobs.size();
  auto shared = std::make_shared<std::vector<Bytes>>(std::move(blobs));
  auto rows = std::make_shared<std::vector<service::DecodedRow>>(n);
  WallTimer timer;
  // The SS server's shape: each batch's prepare stage batch-decrypts its
  // rows on the fan-out pool, and the per-row decode reads them back.
  Status offer = collector.OfferIndexedPrepared(
      n,
      [shared, rows, priv](uint64_t lo, uint64_t hi,
                           ThreadPool* fan_out) -> Status {
        DecryptReports(*shared, lo, hi, priv, fan_out, rows.get());
        return Status::OK();
      },
      [rows](uint64_t row_index) -> Result<service::DecodedRow> {
        return (*rows)[row_index];
      });
  auto round = collector.FinishRound(n, 0, service::Calibration::kStandard);
  Row row;
  row.mode = "streaming-ecies";
  row.oracle = oracle.Name();
  row.backend = ActiveBackendName();
  row.n = n;
  row.d = oracle.domain_size();
  row.dprime = oracle.report_domain();
  row.wall_s = timer.ElapsedSeconds();
  row.rows_per_s = static_cast<double>(n) / row.wall_s;
  if (!offer.ok() || !round.ok()) {
    std::fprintf(stderr, "streaming-ecies failed: %s\n",
                 (!offer.ok() ? offer : round.status()).ToString().c_str());
    return row;
  }
  row.decode_s = round->stats.decode_seconds;
  row.support_eval_s = round->stats.support_eval_seconds;
  row.rows_aggregated = round->stats.rows_aggregated;
  row.backpressure_waits = round->stats.backpressure_waits;
  row.queue_high_water = round->stats.queue_high_water;
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               unsigned threads) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"streaming_throughput\",\n");
  std::fprintf(f, "  \"threads\": %u,\n  \"rows\": [\n", threads);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"oracle\": \"%s\", \"backend\": \"%s\", "
        "\"n\": %llu, \"d\": %llu, \"dprime\": %llu, \"wall_s\": %.6f, "
        "\"rows_per_s\": %.1f, \"decode_s\": %.6f, "
        "\"support_eval_s\": %.6f, \"rows_aggregated\": %llu, "
        "\"backpressure_waits\": %llu, \"queue_high_water\": %llu}%s\n",
        r.mode.c_str(), r.oracle.c_str(), r.backend.c_str(),
        static_cast<unsigned long long>(r.n),
        static_cast<unsigned long long>(r.d),
        static_cast<unsigned long long>(r.dprime), r.wall_s, r.rows_per_s,
        r.decode_s, r.support_eval_s,
        static_cast<unsigned long long>(r.rows_aggregated),
        static_cast<unsigned long long>(r.backpressure_waits),
        static_cast<unsigned long long>(r.queue_high_water),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const uint64_t n = flags.GetU64("n", smoke ? 50000 : 1000000);
  const uint64_t enc_n = flags.GetU64("enc_n", smoke ? 2000 : 20000);
  const uint64_t d = flags.GetU64("d", 1024);
  const uint64_t d_prime = flags.GetU64("dprime", 16);
  const double eps = flags.GetDouble("eps", 3.0);
  const std::string json_path = flags.GetString("json", "");
  const double solh_min_rate = flags.GetDouble("solh_min_rate", 0.0);

  ThreadPool& pool = GlobalThreadPool();
  service::StreamingOptions opts;
  opts.batch_size = flags.GetU64("batch", 4096);
  opts.queue_capacity = flags.GetU64("queue", 64);
  opts.num_shards = static_cast<uint32_t>(flags.GetU64("shards", 0));
  opts.pool = &pool;

  std::printf("streaming_throughput: n=%llu enc_n=%llu d=%llu threads=%u "
              "batch=%zu queue=%zu support_backend=%s\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(enc_n),
              static_cast<unsigned long long>(d), pool.num_threads(),
              opts.batch_size, opts.queue_capacity, ActiveBackendName());

  std::vector<Row> rows;
  Rng rng(20260729);
  double solh_stream_rate = 0.0;

  // Plain rows: GRR (histogram fast path) and SOLH (hash support scan)
  // at several hash ranges — d' = 2 (smallest), the default (power of
  // two), and a non-power-of-2 (magic-modulo path).
  {
    ldp::Grr grr(eps, d);
    auto reports = EncodeAll(grr, n, &rng);
    rows.push_back(RunMonolithicPlain(grr, reports, &pool));
    rows.push_back(RunStreamingPlain(grr, reports, opts));
  }
  const uint64_t solh_dprimes[] = {2, d_prime, 19};
  for (uint64_t dp : solh_dprimes) {
    ldp::LocalHash solh(eps, d, dp, "SOLH");
    auto reports = EncodeAll(solh, n, &rng);
    if (dp == d_prime) {
      rows.push_back(RunMonolithicPlain(solh, reports, &pool));
    }
    rows.push_back(RunStreamingPlain(solh, reports, opts));
    if (dp == d_prime) solh_stream_rate = rows.back().rows_per_s;
    if (dp == d_prime) {
      // Raw kernel rows on the same inputs: best backend vs the
      // forced-scalar per-pair reference.
      rows.push_back(RunHashKernel(solh, reports,
                                   ldp::BestSupportBackend()));
      const uint64_t scalar_n = std::min<uint64_t>(reports.size(),
                                                   smoke ? 20000 : 100000);
      std::vector<ldp::LdpReport> head(reports.begin(),
                                       reports.begin() + scalar_n);
      rows.push_back(
          RunHashKernel(solh, head, ldp::SupportBackend::kScalar));
    }
  }

  // Encrypted rows: the decrypt stage dominates.
  {
    ldp::Grr grr(eps, d);
    crypto::SecureRandom sec(uint64_t{42});
    auto kp = crypto::EciesGenerateKeyPair(&sec);
    auto reports = EncodeAll(grr, enc_n, &rng);
    auto blobs = EncryptAll(grr, reports, kp.public_key, &sec, &pool);
    rows.push_back(RunMonolithicEcies(grr, blobs, kp.private_key, &pool));
    rows.push_back(
        RunStreamingEcies(grr, std::move(blobs), kp.private_key, opts));
  }

  std::printf("\n%-18s %-6s %-9s %9s %5s %6s %9s %13s %9s %9s %6s %5s\n",
              "mode", "oracle", "backend", "n", "d", "d'", "wall_s",
              "rows_per_s", "decode_s", "supp_s", "waits", "hwm");
  for (const Row& r : rows) {
    std::printf(
        "%-18s %-6s %-9s %9llu %5llu %6llu %9.3f %13.0f %9.3f %9.3f "
        "%6llu %5llu\n",
        r.mode.c_str(), r.oracle.c_str(), r.backend.c_str(),
        static_cast<unsigned long long>(r.n),
        static_cast<unsigned long long>(r.d),
        static_cast<unsigned long long>(r.dprime), r.wall_s, r.rows_per_s,
        r.decode_s, r.support_eval_s,
        static_cast<unsigned long long>(r.backpressure_waits),
        static_cast<unsigned long long>(r.queue_high_water));
  }

  if (!json_path.empty()) {
    if (!WriteJson(json_path, rows, pool.num_threads())) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (solh_min_rate > 0.0 && solh_stream_rate < solh_min_rate) {
    std::fprintf(stderr,
                 "FAIL: streaming SOLH d'=%llu ingest %.0f rows/s under "
                 "the %.0f rows/s budget\n",
                 static_cast<unsigned long long>(d_prime), solh_stream_rate,
                 solh_min_rate);
    return 1;
  }
  return 0;
}
