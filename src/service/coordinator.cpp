#include "service/coordinator.h"

#include <algorithm>
#include <limits>

namespace shuffledp {
namespace service {

namespace {

/// Replay bound meaning "everything the round has logged" — what the
/// round-close path passes to RecoverPartition, where every logged
/// batch must reach the endpoint before kFinish can mean anything.
constexpr uint64_t kReplayAll = std::numeric_limits<uint64_t>::max();

}  // namespace

std::string PartitionHealth::ToString() const {
  std::string s = "p" + std::to_string(partition);
  if (healthy) {
    s += " ok";
    if (recoveries > 0 || connection_drops > 0) {
      s += " (" + std::to_string(connection_drops) +
           (connection_drops == 1 ? " drop/eviction, " : " drops/evictions, ") +
           std::to_string(recoveries) +
           (recoveries == 1 ? " recovery, " : " recoveries, ") +
           std::to_string(attempts) + " attempts)";
    }
  } else {
    s += " DEAD after " + std::to_string(attempts) + " attempts (" +
         std::to_string(connection_drops) + " drops/evictions, watermark " +
         std::to_string(watermark_at_death) +
         ", last error: " + last_error.ToString() + ")";
  }
  return s;
}

bool RoundHealth::all_healthy() const {
  for (const PartitionHealth& h : partitions) {
    if (!h.healthy) return false;
  }
  return true;
}

std::string RoundHealth::ToString() const {
  std::string s = "round " + std::to_string(round_id) + ":";
  for (const PartitionHealth& h : partitions) {
    s += " " + h.ToString() + ";";
  }
  if (!s.empty() && s.back() == ';') s.pop_back();
  return s;
}

Result<std::unique_ptr<PartitionRoutingClient>> PartitionRoutingClient::Connect(
    const ldp::ScalarFrequencyOracle& oracle, const PartitionMap& map,
    const std::vector<EndpointAddress>& endpoints,
    const RoutingOptions& options) {
  if (endpoints.size() != map.partitions()) {
    return Status::InvalidArgument(
        "partition routing: " + std::to_string(endpoints.size()) +
        " endpoints for a " + map.ToString() + " layout");
  }
  if (map.domain_size() != oracle.domain_size() ||
      map.packed_bits() != oracle.PackedBits()) {
    return Status::InvalidArgument(
        "partition routing: map " + map.ToString() +
        " does not describe this oracle's domain");
  }
  std::unique_ptr<PartitionRoutingClient> routing(
      new PartitionRoutingClient(oracle, map, endpoints, options));
  routing->clients_.resize(map.partitions());
  routing->round_ids_.assign(map.partitions(), 0);
  routing->replay_log_.resize(map.partitions());
  routing->health_.resize(map.partitions());
  for (uint32_t p = 0; p < map.partitions(); ++p) {
    routing->health_[p].partition = p;
    SHUFFLEDP_RETURN_NOT_OK(routing->ReconnectPartition(p));
  }
  return routing;
}

Status PartitionRoutingClient::ReconnectPartition(uint32_t p) {
  SHUFFLEDP_ASSIGN_OR_RETURN(
      clients_[p], CollectorClient::Connect(endpoints_[p].host,
                                            endpoints_[p].port,
                                            options_.client));
  SHUFFLEDP_ASSIGN_OR_RETURN(round_ids_[p], clients_[p]->Hello(map_, p));
  return Status::OK();
}

void PartitionRoutingClient::ResetRoundState(uint64_t round_id) {
  for (uint32_t p = 0; p < map_.partitions(); ++p) {
    replay_log_[p].clear();
    health_[p] = PartitionHealth{};
    health_[p].partition = p;
  }
  logged_round_ = round_id;
  round_state_valid_ = true;
}

RoundHealth PartitionRoutingClient::SnapshotHealth(uint64_t round_id) const {
  RoundHealth report;
  report.round_id = round_id;
  report.partitions = health_;
  return report;
}

Status PartitionRoutingClient::SendRoutedBatch(uint32_t p,
                                               const Bytes& frame) {
  if (clients_[p] == nullptr) {
    return Status::Unavailable("partition " + std::to_string(p) +
                               " has no live connection");
  }
  // Indexed frame: the endpoint's batch-index gate accepts each producer
  // batch exactly once, so a recovery replay can race stragglers the
  // replaced connection still delivers without double-ingesting.
  return clients_[p]->SendEncodedFrame(frame);
}

Status PartitionRoutingClient::SendBatch(
    uint64_t round_id, uint64_t batch_index,
    const std::vector<uint64_t>& ordinals) {
  if (!round_state_valid_ || logged_round_ != round_id) {
    ResetRoundState(round_id);
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(
      std::vector<Bytes> frames,
      EncodeRoutedBatch(oracle_, map_, round_id, batch_index, ordinals));
  for (uint32_t p = 0; p < map_.partitions(); ++p) {
    // Log before sending: a frame that dies on the wire is exactly the
    // one recovery must replay, byte for byte.
    replay_log_[p].push_back(LoggedBatch{batch_index, std::move(frames[p])});
    Status sent = SendRoutedBatch(p, replay_log_[p].back().frame);
    if (sent.ok()) continue;
    if (!IsRetryableTransportError(sent)) return sent;
    health_[p].last_error = sent;
    SHUFFLEDP_RETURN_NOT_OK(
        RecoverPartition(p, round_id, batch_index + 1));
  }
  return Status::OK();
}

Result<uint64_t> PartitionRoutingClient::QueryWatermark(
    uint32_t p, uint64_t* round_id_out) {
  if (p >= clients_.size()) {
    return Status::InvalidArgument("partition index out of range");
  }
  if (clients_[p] == nullptr) {
    return Status::Unavailable("partition " + std::to_string(p) +
                               " has no live connection");
  }
  return clients_[p]->QueryWatermark(round_id_out);
}

Status PartitionRoutingClient::RecoverPartition(uint32_t p,
                                                uint64_t round_id,
                                                uint64_t replay_until) {
  if (p >= clients_.size()) {
    return Status::InvalidArgument("partition index out of range");
  }
  if (!round_state_valid_ || logged_round_ != round_id) {
    ResetRoundState(round_id);
  }
  PartitionHealth& h = health_[p];
  h.healthy = false;
  // Entering recovery means an established connection just failed under
  // us — the client-side face of a server eviction (idle / slow-writer /
  // write-queue overflow), a reset, or an endpoint death. Count it so
  // RoundHealth surfaces evictions even when recovery succeeds.
  if (clients_[p] != nullptr) ++h.connection_drops;
  // Drop the dead connection before the first backoff sleep. This does
  // NOT guarantee the endpoint has finished with it: kernel-buffered
  // frames sit ahead of our FIN, so the old reader thread may still be
  // ingesting batches while (and after) the fresh connection's watermark
  // is answered. That race is why routed batches ship as kBatchIndexed:
  // the endpoint's index gate accepts each batch index exactly once and
  // silently drops the straggler/replay duplicate, whichever connection
  // delivers second. The watermark is therefore a safe (possibly stale-
  // low) replay floor, never a dedup mechanism by itself.
  clients_[p].reset();
  BackoffSchedule backoff(options_.retry,
                          (static_cast<uint64_t>(p) << 32) ^ round_id);
  Status last = h.last_error.ok()
                    ? Status::Unavailable("endpoint for partition " +
                                          std::to_string(p) + " lost")
                    : h.last_error;
  const uint32_t budget = std::max<uint32_t>(1, options_.retry.max_attempts);
  for (uint32_t attempt = 0; attempt < budget; ++attempt) {
    SleepForMs(backoff.NextDelayMs());
    ++h.attempts;
    Status step = ReconnectPartition(p);
    if (!step.ok()) {
      last = step;
      h.last_error = step;
      if (!IsRetryableTransportError(step)) return step;
      continue;
    }
    uint64_t server_round = 0;
    Result<uint64_t> mark = QueryWatermark(p, &server_round);
    if (!mark.ok()) {
      last = mark.status();
      h.last_error = last;
      if (!IsRetryableTransportError(last)) return last;
      continue;
    }
    if (server_round == round_id + 1) {
      // The endpoint already closed this round — the failure hit the
      // close-to-read window. Nothing to replay; a re-sent kFinish is
      // served from the endpoint's result stash.
      ++h.recoveries;
      h.healthy = true;
      return Status::OK();
    }
    if (server_round != round_id) {
      Status fatal = Status::Internal(
          "partition " + std::to_string(p) + " endpoint resumed round " +
          std::to_string(server_round) + "; cannot replay round " +
          std::to_string(round_id) +
          " into it (restarted without its round store?)");
      h.last_error = fatal;
      return fatal;
    }
    h.watermark_at_death = *mark;
    // Replay the unconsumed suffix [watermark, replay_until) from the
    // round's routed-frame log.
    Status replay = Status::OK();
    for (const LoggedBatch& entry : replay_log_[p]) {
      if (entry.batch_index < *mark || entry.batch_index >= replay_until) {
        continue;
      }
      replay = SendRoutedBatch(p, entry.frame);
      if (!replay.ok()) break;
    }
    if (replay.ok()) {
      ++h.recoveries;
      h.healthy = true;
      return Status::OK();
    }
    last = replay;
    h.last_error = replay;
    if (!IsRetryableTransportError(replay)) return replay;
    ++h.connection_drops;
    clients_[p].reset();  // the replay connection died too
  }
  h.healthy = false;
  return Status(last.code(),
                "partition " + std::to_string(p) +
                    " recovery exhausted after " +
                    std::to_string(h.attempts) + " attempts: " +
                    last.message());
}

Result<RoundResult> MergeCoordinator::FinishRound(uint64_t round_id,
                                                  uint64_t n,
                                                  uint64_t n_fake,
                                                  Calibration calibration) {
  const uint32_t partitions = client_->partitions();
  const uint32_t budget =
      std::max<uint32_t>(1, client_->options().retry.max_attempts);

  // On every exit, last_health_ reflects this round — which partitions
  // recovered, which died, and a failure Status embeds the report.
  auto fail = [&](const Status& s) -> Status {
    last_health_ = client_->SnapshotHealth(round_id);
    return Status(s.code(), s.message() + " [" + last_health_.ToString() +
                                "]");
  };

  auto send_finish = [&](uint32_t p) -> Status {
    CollectorClient* c = client_->client(p);
    if (c == nullptr) {
      return Status::Unavailable("partition " + std::to_string(p) +
                                 " has no live connection");
    }
    return c->SendFinish(round_id, n, n_fake, Calibration::kNone);
  };

  // Pipelined close: every endpoint starts draining its slice before the
  // first result is read — the round-close latency is the slowest
  // endpoint's, not the sum. A send that dies retryably triggers the
  // recovery dance (reconnect → handshake → watermark → replay) and a
  // re-send, bounded by the retry budget per failure cycle.
  for (uint32_t p = 0; p < partitions; ++p) {
    Status sent = send_finish(p);
    for (uint32_t cycle = 0; !sent.ok(); ++cycle) {
      if (!IsRetryableTransportError(sent) || cycle >= budget) {
        return fail(sent);
      }
      Status recovered = client_->RecoverPartition(p, round_id, kReplayAll);
      if (!recovered.ok()) return fail(recovered);
      sent = send_finish(p);
    }
  }
  std::vector<std::vector<uint64_t>> parts(partitions);
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  bool spot_check_passed = true;
  uint64_t rows = 0;
  for (uint32_t p = 0; p < partitions; ++p) {
    Result<RemoteRoundResult> part =
        client_->client(p) == nullptr
            ? Result<RemoteRoundResult>(Status::Unavailable(
                  "partition " + std::to_string(p) +
                  " has no live connection"))
            : client_->client(p)->ReadRoundResult();
    // A result read that dies retryably (connection reset between the
    // finish and the reply, endpoint restart mid-drain) recovers the
    // endpoint and re-sends the finish on the fresh connection; the
    // endpoint answers a re-finish for an already-closed round from its
    // result stash, so this converges without re-running the round.
    for (uint32_t cycle = 0; !part.ok(); ++cycle) {
      if (!IsRetryableTransportError(part.status()) || cycle >= budget) {
        return fail(part.status());
      }
      Status recovered = client_->RecoverPartition(p, round_id, kReplayAll);
      if (!recovered.ok()) return fail(recovered);
      Status resent = send_finish(p);
      if (!resent.ok()) {
        part = resent;
        continue;
      }
      part = client_->client(p)->ReadRoundResult();
    }
    reports_decoded += part->reports_decoded;
    reports_invalid += part->reports_invalid;
    dummies_recognized += part->dummies_recognized;
    dummies_expected += part->dummies_expected;
    spot_check_passed = spot_check_passed && part->spot_check_passed;
    rows += part->reports_decoded + part->reports_invalid +
            part->dummies_recognized;
    parts[p] = std::move(part->supports);
  }
  // Best-effort durability probe: a partition that shed durability
  // mid-round (ENOSPC) still answered with a complete result, but the
  // operator must learn that a crash right now would lose it. kQuery is
  // advisory — a probe failure never fails a round that already has its
  // numbers.
  std::vector<uint32_t> degraded_partitions;
  for (uint32_t p = 0; p < partitions; ++p) {
    CollectorClient* c = client_->client(p);
    if (c == nullptr) continue;
    Result<RoundQuery> q = c->QueryRound(round_id);
    if (q.ok() && q->durability_degraded) degraded_partitions.push_back(p);
  }
  last_health_ = client_->SnapshotHealth(round_id);
  for (uint32_t p : degraded_partitions) {
    for (PartitionHealth& h : last_health_.partitions) {
      if (h.partition == p) {
        // Degraded, not dead: the partition stays healthy (its result
        // is complete and correct) but the warning rides the report.
        h.last_error = Status::ResourceExhausted(
            "round " + std::to_string(round_id) +
            " finished with durability degraded (results not crash-safe)");
      }
    }
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(std::vector<uint64_t> merged,
                             client_->map().MergeSupports(parts));

  // Merge first, calibrate once: the estimator is a function of the
  // whole population's supports (see the header note), and running it
  // here on the merged vector is the exact computation the single-node
  // drain task performs — bitwise, which the distributed e2e pins.
  RoundResult result = FinalizeRoundResult(
      oracle_, std::move(merged), n, n_fake, calibration, reports_decoded,
      reports_invalid, dummies_recognized, dummies_expected);
  // Cross-partition spot-check: each endpoint already compared its own
  // recognized/expected counts; the merged verdict must also fail if any
  // single partition's did (a per-partition miss can hide in the sums
  // when another partition over-recognizes).
  result.spot_check_passed = result.spot_check_passed && spot_check_passed;
  result.stats.rows = rows;
  if (!degraded_partitions.empty()) {
    result.durability_degraded = true;
    std::string warning = "durability degraded on partition(s)";
    for (uint32_t p : degraded_partitions) {
      warning += " " + std::to_string(p);
    }
    result.durability_warning = std::move(warning);
  }
  return result;
}

}  // namespace service
}  // namespace shuffledp
