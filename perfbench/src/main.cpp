// perfbench: runs one workload for a fixed time, checks every round's
// output, and prints one JSON object on the last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans PATH]
//
// --trace 0 measures the end-to-end metrics. Set-up (planning, keys,
// endpoints, store open, handshakes and one warm-up round) runs three
// times and setup_s is the median; the timed closed loop then runs the
// last set-up's rounds for S seconds.
//
// --trace 1 measures the per-layer split: S/2 seconds of untraced rounds,
// then S/2 seconds with spans recorded around each layer call (see
// trace.h). The difference of the two round medians is the tracing
// overhead, and the traced estimates must equal the untraced ones bitwise.
//
// DIR holds the fleets' round stores; it is created and wiped here.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "crypto/aes.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"
#include "ldp/support_kernels.h"
#include "trace.h"
#include "util/timer.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using shuffledp::Result;
using shuffledp::Status;
using shuffledp::WallTimer;

constexpr int kSetups = 3;
// A round fails its check when its MSE against the true histogram exceeds
// this multiple of the oracle's analytic estimator variance.
constexpr double kMseMultiple = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    kv[key] = value;
  }
  if (kv.count("workload") == 0 || kv.count("work-dir") == 0) return false;
  args->workload = kv["workload"];
  args->work_dir = kv["work-dir"];
  if (kv.count("seed")) args->seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
  if (kv.count("seconds")) args->seconds = std::atof(kv["seconds"].c_str());
  if (kv.count("trace")) args->trace = kv["trace"] == "1";
  if (kv.count("spans")) args->spans_path = kv["spans"];
  return args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  void Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  void Num(const std::string& key, double v) { Raw(key, Number(v)); }
  void Str(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Metric(const std::string& key, double v, const std::string& unit) {
    Raw(key, "{\"value\": " + Number(v) + ", \"unit\": " + Quote(unit) + "}");
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// Environment stamp
// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::string EnvStamp(const Workload& workload, const std::string& store_root) {
  JsonObject env;
  env.Num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  env.Str("cpu_model", CpuModel());
  env.Num("thread_pool", workload.pool_threads());
  env.Num("event_threads", workload.event_threads());
  env.Str("aes", shuffledp::crypto::AesBackendName(
                     shuffledp::crypto::ActiveAesBackend()));
  env.Str("sha", shuffledp::crypto::ShaBackendName(
                     shuffledp::crypto::ActiveShaBackend()));
  env.Str("mont", shuffledp::crypto::MontBackendName(
                      shuffledp::crypto::ActiveMontBackend()));
  env.Str("support", shuffledp::ldp::SupportBackendName(
                         shuffledp::ldp::ActiveSupportBackend()));
  JsonObject vars;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("SHUFFLEDP_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    vars.Str(entry.substr(0, eq),
             eq == std::string::npos ? "" : entry.substr(eq + 1));
  }
  env.Raw("shuffledp_env", vars.Dump());
  env.Str("store_fs", FsType(store_root));
  return env.Dump();
}

// ---------------------------------------------------------------------------
// Statistics and resource usage
// ---------------------------------------------------------------------------

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

// Every round must return finite estimates over the whole domain, pass
// the spot check, account for every fleet row, and be bitwise equal to
// the first round's (same seed, pinned protocol randomness). The first
// round's MSE against the true histogram must stay under kMseMultiple
// times the analytic variance.
class Checker {
 public:
  explicit Checker(const Inputs& inputs) : inputs_(inputs) {}

  /// Empty when the round passes; otherwise why it failed.
  std::string Check(const Workload& workload, const RoundOutcome& out) {
    if (out.estimates.size() != inputs_.domain) {
      return "estimate vector has the wrong length";
    }
    for (double e : out.estimates) {
      if (!std::isfinite(e)) return "non-finite estimate";
    }
    if (!out.spot_check_passed) return "spot check failed";
    if (!inputs_.batches.empty()) {
      const uint64_t rows = inputs_.values.size() + inputs_.fleet_fakes;
      if (out.rows != rows || out.reports_decoded + out.reports_invalid != rows) {
        return "fleet lost or duplicated rows";
      }
      if (!out.healthy) return "fleet round finished unhealthy";
    }
    if (first_.empty()) {
      const double n = static_cast<double>(inputs_.values.size());
      double sq = 0.0;
      for (size_t v = 0; v < out.estimates.size(); ++v) {
        const double err =
            out.estimates[v] - static_cast<double>(inputs_.true_counts[v]) / n;
        sq += err * err;
      }
      mse_ratio_ = sq / static_cast<double>(out.estimates.size()) /
                   workload.AnalyticVariance();
      if (!(mse_ratio_ <= kMseMultiple)) {
        return "MSE is " + Number(mse_ratio_) + "x the analytic variance";
      }
      first_ = out.estimates;
      return "";
    }
    if (std::memcmp(first_.data(), out.estimates.data(),
                    first_.size() * sizeof(double)) != 0) {
      return "estimates differ from the first round's";
    }
    return "";
  }

  const std::vector<double>& first() const { return first_; }
  double mse_ratio() const { return mse_ratio_; }

 private:
  const Inputs& inputs_;
  std::vector<double> first_;
  double mse_ratio_ = 0.0;
};

struct RunState {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // first failure, for the log

  void Fail(const std::string& why) {
    ++failed;
    if (error.empty()) error = why;
  }
};

// Runs `round` until `seconds` have passed or a round errors; `round`
// returns the outcome and stores the round's latency in `*ms`.
using RoundFn = std::function<Result<RoundOutcome>(double* ms)>;

void TimedRounds(const Workload& workload, Checker* checker, RunState* state,
                 double seconds, const RoundFn& round,
                 std::vector<double>* round_ms) {
  WallTimer loop;
  while (loop.ElapsedSeconds() < seconds) {
    ++state->attempted;
    double ms = 0.0;
    Result<RoundOutcome> out = round(&ms);
    if (!out.ok()) {
      state->Fail("round error: " + out.status().ToString());
      return;
    }
    round_ms->push_back(ms);
    const std::string why = checker->Check(workload, *out);
    if (!why.empty()) state->Fail(why);
  }
}

// An untraced round, timed from the Run*/Collect call (or the first
// SendBatch) to estimates in hand.
Result<RoundOutcome> PlainRound(Workload* workload, double* ms) {
  WallTimer timer;
  Result<RoundOutcome> out = workload->RunRound();
  *ms = timer.ElapsedMillis();
  return out;
}

// A set-up plus its warm-up round; setup time ends with the warm-up.
Result<std::unique_ptr<Workload>> SetUp(const Inputs& inputs,
                                        const std::string& dir, bool traced,
                                        Checker* checker, RunState* state,
                                        double* seconds) {
  WallTimer timer;
  SHUFFLEDP_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload,
                             MakeWorkload(inputs, dir));
  SHUFFLEDP_RETURN_NOT_OK(workload->Setup(traced));
  ++state->attempted;
  Result<RoundOutcome> warm = workload->RunRound();
  *seconds = timer.ElapsedSeconds();
  if (!warm.ok()) return warm.status();
  const std::string why = checker->Check(*workload, *warm);
  if (!why.empty()) state->Fail("warm-up: " + why);
  return workload;
}

// ---------------------------------------------------------------------------
// --trace 0
// ---------------------------------------------------------------------------

std::string RunEndToEnd(const Args& args, const Inputs& inputs,
                        double input_seconds, RunState* state) {
  Checker checker(inputs);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();  // tear the previous set-up down off the clock
    double seconds = 0.0;
    auto made = SetUp(inputs, args.work_dir + "/setup-" + std::to_string(k),
                      /*traced=*/false, &checker, state, &seconds);
    if (!made.ok()) {
      state->Fail("set-up: " + made.status().ToString());
      return "";
    }
    workload = std::move(made).value();
    setup_s.push_back(seconds);
  }
  const std::string env = EnvStamp(*workload, args.work_dir);

  std::vector<double> round_ms;
  RoundOutcome last;
  const double cpu_before = CpuSeconds();
  TimedRounds(
      *workload, &checker, state, args.seconds,
      [&](double* ms) {
        Result<RoundOutcome> out = PlainRound(workload.get(), ms);
        if (out.ok()) last.costs = out->costs;
        return out;
      },
      &round_ms);
  const double cpu = CpuSeconds() - cpu_before;

  Result<std::vector<double>> reference = workload->Reference();
  if (!reference.ok()) {
    state->Fail("reference: " + reference.status().ToString());
  } else if (!reference->empty() &&
             (reference->size() != checker.first().size() ||
              std::memcmp(reference->data(), checker.first().data(),
                          reference->size() * sizeof(double)) != 0)) {
    // Every round equalled the first, so every round is wrong.
    state->failed = state->attempted;
    state->error = "fleet estimates differ from the single-node collector";
  }

  double total_s = 0.0;
  for (double ms : round_ms) total_s += ms / 1e3;
  const double reports =
      static_cast<double>(workload->real_reports() * round_ms.size());
  JsonObject metrics;
  metrics.Metric("reports_per_s", total_s > 0 ? reports / total_s : 0.0, "1/s");
  metrics.Metric("round_p50_ms", Median(round_ms), "ms");
  metrics.Metric("round_p90_ms", Percentile(round_ms, 0.9), "ms");
  metrics.Metric("cpu_us_per_report", reports > 0 ? cpu * 1e6 / reports : 0.0,
                 "us");
  metrics.Metric("user_upload_bytes", workload->UserUploadBytes(last), "B");
  metrics.Metric("setup_s", Median(setup_s), "s");
  metrics.Metric("peak_rss_mb", PeakRssMb(), "MB");
  const double ok_ratio =
      state->attempted == 0
          ? 0.0
          : static_cast<double>(state->attempted - state->failed) /
                static_cast<double>(state->attempted);
  metrics.Metric("rounds_ok_ratio", ok_ratio, "ratio");
  workload.reset();

  JsonObject details;
  details.Num("round_samples", static_cast<double>(round_ms.size()));
  details.Num("round_p90_beyond", std::floor(0.1 * round_ms.size()));
  details.Num("input_s", input_seconds);
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i ? ", " : "") + Number(setup_s[i]);
  }
  details.Raw("setup_s_each", setups + "]");
  details.Num("mse_over_variance", checker.mse_ratio());
  details.Num("ops_failed_ratio", 1.0 - ok_ratio);

  JsonObject out;
  out.Raw("env", env);
  out.Raw("metrics", metrics.Dump());
  out.Raw("details", details.Dump());
  return out.Dump();
}

// ---------------------------------------------------------------------------
// --trace 1
// ---------------------------------------------------------------------------

constexpr size_t kCounters = static_cast<size_t>(Counter::kNumCounters);

struct TracedRound {
  uint32_t round = 0;
  double wall_ms = 0.0;
  RoundOutcome outcome;
  std::array<uint64_t, kCounters> counters{};
  FleetStats fleet;
};

std::array<uint64_t, kCounters> ReadCounters() {
  std::array<uint64_t, kCounters> values{};
  for (size_t c = 0; c < kCounters; ++c) {
    values[c] = Tracer::Read(static_cast<Counter>(c));
  }
  return values;
}

std::string RunTraced(const Args& args, const Inputs& inputs,
                      RunState* state) {
  Checker checker(inputs);
  const double half = args.seconds / 2.0;

  // Untraced half: the baseline for the tracing overhead and the
  // estimates the traced rounds must reproduce bitwise.
  std::vector<double> untraced_ms;
  std::string env;
  {
    double seconds = 0.0;
    auto made = SetUp(inputs, args.work_dir + "/untraced", false, &checker,
                      state, &seconds);
    if (!made.ok()) {
      state->Fail("set-up: " + made.status().ToString());
      return "";
    }
    std::unique_ptr<Workload> workload = std::move(made).value();
    env = EnvStamp(*workload, args.work_dir);
    TimedRounds(
        *workload, &checker, state, half,
        [&](double* ms) { return PlainRound(workload.get(), ms); },
        &untraced_ms);
  }

  // Traced half.
  Tracer::Clear();
  Tracer::Enable(true);
  Tracer::SetRound(0, 0);
  std::vector<TracedRound> rounds;
  std::vector<double> traced_ms;
  double plan_ms = 0.0;
  {
    double seconds = 0.0;
    auto made = SetUp(inputs, args.work_dir + "/traced", true, &checker,
                      state, &seconds);
    if (!made.ok()) {
      Tracer::Enable(false);
      state->Fail("traced set-up: " + made.status().ToString());
      return "";
    }
    std::unique_ptr<Workload> workload = std::move(made).value();
    plan_ms = workload->plan_seconds() * 1e3;
    auto traced_round = [&](double* ms) -> Result<RoundOutcome> {
      TracedRound current;
      current.round = static_cast<uint32_t>(rounds.size() + 1);
      const auto counters = ReadCounters();
      const FleetStats fleet = workload->fleet_stats();
      Tracer::SetRound(current.round, 0);
      WallTimer timer;
      Result<RoundOutcome> out = Status::Internal("not run");
      {
        ScopedSpan root(SpanKind::kRound);
        Tracer::SetRound(current.round, root.id());
        out = workload->RunRound();
      }
      current.wall_ms = timer.ElapsedMillis();
      *ms = current.wall_ms;
      if (!out.ok()) return out;
      const auto after = ReadCounters();
      for (size_t c = 0; c < kCounters; ++c) {
        current.counters[c] = after[c] - counters[c];
      }
      const FleetStats now = workload->fleet_stats();
      current.fleet.frames = now.frames - fleet.frames;
      current.fleet.protocol_errors =
          now.protocol_errors - fleet.protocol_errors;
      current.fleet.batches_deduped =
          now.batches_deduped - fleet.batches_deduped;
      current.fleet.evictions = now.evictions - fleet.evictions;
      current.outcome = *out;
      rounds.push_back(std::move(current));
      return out;
    };
    TimedRounds(*workload, &checker, state, half, traced_round, &traced_ms);
    workload.reset();  // joins every recording thread before Collect
  }
  Tracer::Enable(false);
  const std::vector<Span> spans = Tracer::Collect();
  if (!args.spans_path.empty() && !WriteSpans(args.spans_path, spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
  }

  // Per-round sums of span durations (ms) and counts, by kind; and the
  // round span's self time (the benchmark's own share of the round).
  const size_t kinds = static_cast<size_t>(SpanKind::kNumKinds);
  std::map<uint32_t, std::vector<double>> span_ms;
  std::map<uint32_t, std::vector<double>> span_count;
  std::map<uint32_t, double> root_self_ms;
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& ms = span_ms[s.round];
    auto& count = span_count[s.round];
    ms.resize(kinds, 0.0);
    count.resize(kinds, 0.0);
    ms[static_cast<size_t>(s.kind)] += (s.end_ns - s.start_ns) / 1e6;
    count[static_cast<size_t>(s.kind)] += 1.0;
    if (s.kind == SpanKind::kRound) root_self_ms[s.round] = self[i] / 1e6;
  }

  // Median over the traced rounds of a per-round value.
  auto per_round = [&](auto value) {
    std::vector<double> v;
    for (const TracedRound& r : rounds) v.push_back(value(r));
    return Median(v);
  };
  auto total = [&](auto value) {
    double sum = 0.0;
    for (const TracedRound& r : rounds) sum += value(r);
    return sum;
  };
  auto kind_ms = [&](SpanKind kind) {
    return per_round([&](const TracedRound& r) {
      auto it = span_ms.find(r.round);
      return it == span_ms.end() ? 0.0 : it->second[static_cast<size_t>(kind)];
    });
  };
  auto kind_count = [&](SpanKind kind) {
    return per_round([&](const TracedRound& r) {
      auto it = span_count.find(r.round);
      return it == span_count.end() ? 0.0
                                    : it->second[static_cast<size_t>(kind)];
    });
  };
  auto counter = [&](Counter c) {
    return per_round([&](const TracedRound& r) {
      return static_cast<double>(r.counters[static_cast<size_t>(c)]);
    });
  };
  const double n = static_cast<double>(inputs.values.size());
  auto user_s = [&](const TracedRound& r) {
    return r.outcome.costs.user_comp_ms_per_user * n / 1e3;
  };
  auto aux_s = [&](const TracedRound& r) {
    return r.outcome.costs.aux_comp_seconds * r.outcome.costs.r;
  };
  auto server_s = [&](const TracedRound& r) {
    return r.outcome.costs.server_comp_seconds;
  };
  const bool protocol = inputs.batches.empty();

  JsonObject m;
  m.Metric("planner.plan_ms", plan_ms, "ms");
  m.Metric("shuffle.user_s", per_round(user_s), "s");
  m.Metric("shuffle.aux_s", per_round(aux_s), "s");
  m.Metric("shuffle.server_s", per_round(server_s), "s");
  m.Metric("shuffle.unattributed_s",
           protocol ? per_round([&](const TracedRound& r) {
             return r.outcome.run_seconds - user_s(r) - aux_s(r) - server_s(r);
           })
                    : 0.0,
           "s");
  m.Metric("shuffle.aux_mb_per_shuffler",
           per_round([](const TracedRound& r) {
             return r.outcome.costs.aux_comm_mb_per_shuffler;
           }),
           "MB");
  m.Metric("shuffle.server_mb", per_round([](const TracedRound& r) {
             return r.outcome.costs.server_comm_mb;
           }),
           "MB");
  m.Metric("worker.decode_s", per_round([](const TracedRound& r) {
             return r.outcome.streaming.decode_seconds;
           }),
           "s");
  m.Metric("worker.support_eval_s", per_round([](const TracedRound& r) {
             return r.outcome.streaming.support_eval_seconds;
           }),
           "s");
  m.Metric("worker.busy_s", per_round([](const TracedRound& r) {
             return r.outcome.streaming.busy_seconds;
           }),
           "s");
  m.Metric("worker.backpressure_waits", per_round([](const TracedRound& r) {
             return static_cast<double>(r.outcome.streaming.backpressure_waits);
           }),
           "count");
  m.Metric("worker.queue_high_water", per_round([](const TracedRound& r) {
             return static_cast<double>(r.outcome.streaming.queue_high_water);
           }),
           "count");
  // Fleets expose only merged row totals to the client: the ratio there
  // is decoded rows over ingested rows.
  m.Metric("worker.aggregated_ratio", per_round([&](const TracedRound& r) {
             const uint64_t num = protocol ? r.outcome.streaming.rows_aggregated
                                           : r.outcome.reports_decoded;
             const uint64_t den =
                 protocol ? r.outcome.streaming.rows : r.outcome.rows;
             return den == 0 ? 0.0
                             : static_cast<double>(num) /
                                   static_cast<double>(den);
           }),
           "ratio");
  m.Metric("ldp.encode_calls", counter(Counter::kEncodeCalls), "count");
  m.Metric("ldp.encode_s", counter(Counter::kEncodeNs) / 1e9, "s");
  m.Metric("ldp.accumulate_calls",
           kind_count(SpanKind::kAccumulate) + kind_count(SpanKind::kSupportsMany),
           "count");
  m.Metric("ldp.accumulate_s",
           (kind_ms(SpanKind::kAccumulate) + kind_ms(SpanKind::kSupportsMany)) /
               1e3,
           "s");
  m.Metric("ldp.unpack_calls", counter(Counter::kUnpackCalls), "count");
  m.Metric("transport.send_ms", kind_ms(SpanKind::kSendBatch), "ms");
  m.Metric("transport.frames", per_round([](const TracedRound& r) {
             return static_cast<double>(r.fleet.frames);
           }),
           "count");
  m.Metric("transport.protocol_errors", total([](const TracedRound& r) {
             return static_cast<double>(r.fleet.protocol_errors);
           }),
           "count");
  m.Metric("transport.batches_deduped", total([](const TracedRound& r) {
             return static_cast<double>(r.fleet.batches_deduped);
           }),
           "count");
  m.Metric("transport.evictions", total([](const TracedRound& r) {
             return static_cast<double>(r.fleet.evictions);
           }),
           "count");
  m.Metric("coordinator.finish_ms", kind_ms(SpanKind::kFinish), "ms");
  m.Metric("coordinator.recoveries", total([](const TracedRound& r) {
             return static_cast<double>(r.outcome.recoveries);
           }),
           "count");
  m.Metric("coordinator.connection_drops", total([](const TracedRound& r) {
             return static_cast<double>(r.outcome.connection_drops);
           }),
           "count");
  m.Metric("store.appends", kind_count(SpanKind::kStoreAppend), "count");
  m.Metric("store.append_ms", kind_ms(SpanKind::kStoreAppend), "ms");
  m.Metric("store.delta_bytes", counter(Counter::kStoreDeltaBytes), "B");
  m.Metric("store.finalize_ms", kind_ms(SpanKind::kStoreFinalize), "ms");
  m.Metric("store.close_ms", kind_ms(SpanKind::kStoreClose), "ms");
  const double traced_p50 = Median(traced_ms);
  const double untraced_p50 = Median(untraced_ms);
  m.Metric("trace.round_p50_ms", traced_p50, "ms");
  m.Metric("trace.untraced_round_p50_ms", untraced_p50, "ms");
  m.Metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  m.Metric("trace.round_self_ms", per_round([&](const TracedRound& r) {
             auto it = root_self_ms.find(r.round);
             return it == root_self_ms.end() ? 0.0 : it->second;
           }),
           "ms");
  m.Metric("trace.rounds", static_cast<double>(rounds.size()), "count");
  m.Metric("trace.spans", static_cast<double>(spans.size()), "count");

  JsonObject out;
  out.Raw("env", env);
  out.Raw("metrics", m.Dump());
  JsonObject details;
  details.Num("untraced_rounds", static_cast<double>(untraced_ms.size()));
  details.Num("mse_over_variance", checker.mse_ratio());
  out.Raw("details", details.Dump());
  return out.Dump();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--spans PATH]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  WallTimer input_timer;
  Result<Inputs> inputs = MakeInputs(args.workload, args.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
    return 2;
  }
  const double input_seconds = input_timer.ElapsedSeconds();

  RunState state;
  const std::string body = args.trace
                               ? RunTraced(args, *inputs, &state)
                               : RunEndToEnd(args, *inputs, input_seconds,
                                             &state);
  fs::remove_all(args.work_dir, ec);

  const bool correct = state.failed == 0 && !body.empty();
  if (!state.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 state.error.c_str());
  }
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(state.attempted));
  result.Num("failed", static_cast<double>(state.failed));
  result.Raw("report", body.empty() ? "{}" : body);
  std::printf("%s\n", result.Dump().c_str());
  return correct ? 0 : 1;
}
