#include "service/partition_worker.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "ldp/estimator.h"
#include "service/retry.h"

namespace shuffledp {
namespace service {

namespace {

/// Reports per decode task on the pool. Rows land in the batch's row
/// vector by index, so results do not depend on it.
constexpr uint64_t kDecodeChunk = 512;

}  // namespace

std::string StreamingStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "batches=%llu rows=%llu rows_aggregated=%llu "
                "backpressure_waits=%llu queue_high_water=%llu busy=%.3fs "
                "decode=%.3fs support_eval=%.3fs wall=%.3fs rate=%.0f rows/s",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(rows_aggregated),
                static_cast<unsigned long long>(backpressure_waits),
                static_cast<unsigned long long>(queue_high_water),
                busy_seconds, decode_seconds, support_eval_seconds,
                wall_seconds, rows_per_second);
  return buf;
}

ReportBatch MakePlainBatch(std::vector<ldp::LdpReport> reports) {
  auto shared =
      std::make_shared<std::vector<ldp::LdpReport>>(std::move(reports));
  ReportBatch batch;
  batch.count = shared->size();
  batch.decode = [shared](uint64_t i) -> Result<DecodedRow> {
    DecodedRow row;
    row.valid = true;
    row.report = (*shared)[i];
    return row;
  };
  return batch;
}

ReportBatch MakeOrdinalBatch(std::vector<uint64_t> ordinals) {
  ReportBatch batch;
  batch.count = ordinals.size();
  batch.ordinals = std::move(ordinals);
  return batch;
}

RoundResult FinalizeRoundResult(const ldp::ScalarFrequencyOracle& oracle,
                                std::vector<uint64_t> supports,
                                uint64_t n, uint64_t n_fake,
                                Calibration calibration,
                                uint64_t reports_decoded,
                                uint64_t reports_invalid,
                                uint64_t dummies_recognized,
                                uint64_t dummies_expected) {
  RoundResult result;
  result.supports = std::move(supports);
  switch (calibration) {
    case Calibration::kStandard:
      result.estimates = ldp::CalibrateEstimates(oracle, result.supports, n,
                                                 n_fake);
      break;
    case Calibration::kOrdinal:
      result.estimates = ldp::CalibrateEstimatesOrdinal(
          oracle, result.supports, n, n_fake);
      break;
    case Calibration::kNone:
      break;  // raw supports for the merge coordinator
  }
  result.reports_decoded = reports_decoded;
  result.reports_invalid = reports_invalid;
  result.dummies_recognized = dummies_recognized;
  result.dummies_expected = dummies_expected;
  result.spot_check_passed = dummies_recognized == dummies_expected;
  return result;
}

PartitionWorker::PartitionWorker(const ldp::ScalarFrequencyOracle& oracle,
                                 StreamingOptions options)
    : oracle_(oracle),
      options_(options),
      queue_(options.queue_capacity) {
  if (options_.pool != nullptr && options_.pool->InWorkerThread()) {
    // Constructed from one of the pool's own workers (a protocol run
    // nested inside a pool task): the consumer's decode/count fan-out
    // would wait on pool slots the blocked caller occupies — a deadlock
    // once the caller parks in Push()/FinishRound(). Degrade to serial
    // processing on the consumer thread, which always makes progress.
    options_.pool = nullptr;
  }
  slice_ = options_.partition.Resolved(oracle_.domain_size());
  counter_ = std::make_unique<ShardedSupportCounter>(
      oracle_, options_.num_shards, slice_.lo, slice_.hi);
  drain_counter_ = std::make_unique<ShardedSupportCounter>(
      oracle_, options_.num_shards, slice_.lo, slice_.hi);
  if (options_.store != nullptr) {
    store_ = options_.store;
  } else {
    Result<std::shared_ptr<RoundStore>> store =
        OpenRoundStore(options_.round_store, slice_);
    if (store.ok()) {
      store_ = std::move(*store);
    } else {
      // The operator asked for durability and the store refused to open
      // (corrupt WAL, wrong slice identity, unreachable directory):
      // poison the pipeline now so the first Offer reports it, instead
      // of ingesting a round that silently cannot persist.
      round_status_ = store.status();
      queue_.Close();
    }
  }
  ResetRoundTallies();
  // The consumer spawns lazily on the first Offer (EnsureConsumer), so a
  // constructed-but-unused worker does not park an idle thread.
}

PartitionWorker::~PartitionWorker() {
  queue_.Close();
  if (consumer_.joinable()) consumer_.join();
  // The last round's finalize task may still run on the pool; it touches
  // the drain counter and its promise, so wait it out before members die.
  if (drain_done_.valid()) drain_done_.wait();
}

void PartitionWorker::ResetRoundTallies() {
  rows_seen_ = 0;
  batches_seen_ = 0;
  reports_decoded_ = 0;
  reports_invalid_ = 0;
  dummies_recognized_ = 0;
  rows_aggregated_ = 0;
  busy_seconds_ = 0.0;
  decode_seconds_ = 0.0;
  support_eval_seconds_ = 0.0;
  dummies_expected_ = 0;
  dummy_multiset_.clear();
  durability_degraded_ = false;
  durability_warning_.clear();
  degraded_flag_.store(false, std::memory_order_relaxed);
  if (store_ != nullptr) {
    persisted_supports_.assign(slice_.hi - slice_.lo, 0);
  }
  group_batches_ = 0;
  waits_at_round_start_ = queue_.producer_waits();
  queue_.ResetHighWaterMark();
  round_timer_.Reset();
}

void PartitionWorker::EnsureConsumer() {
  std::lock_guard<std::mutex> lock(consumer_mu_);
  if (!consumer_.joinable()) {
    consumer_ = std::thread([this] { ConsumerLoop(); });
  }
}

void PartitionWorker::ExpectDummy(const ldp::LdpReport& report,
                                  uint64_t tag) {
  ExpectDummies({{report, tag}});
}

void PartitionWorker::ExpectDummies(
    const std::vector<std::pair<ldp::LdpReport, uint64_t>>& dummies) {
  if (dummies.empty()) return;
  EnsureConsumer();
  WorkItem item;
  item.dummies.reserve(dummies.size());
  for (const auto& [report, tag] : dummies) {
    item.dummies.emplace_back(ldp::PackReport(report), tag);
  }
  queue_.Push(std::move(item));  // a closed (failed) pipeline drops it;
                                 // the next Offer reports the error
}

Status PartitionWorker::Offer(ReportBatch batch) {
  EnsureConsumer();
  WorkItem item;
  item.batch = std::move(batch);
  if (!queue_.Push(std::move(item))) {
    // The queue only rejects after Close(): a processing failure shut the
    // pipeline down (or the worker is being destroyed).
    Status error = PipelineError();
    if (!error.ok()) return error;
    return Status::FailedPrecondition(
        "partition worker: pipeline is shut down");
  }
  return Status::OK();
}

Status PartitionWorker::OfferReports(
    const std::vector<ldp::LdpReport>& reports) {
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);
  for (size_t lo = 0; lo < reports.size(); lo += batch_size) {
    size_t hi = std::min(reports.size(), lo + batch_size);
    SHUFFLEDP_RETURN_NOT_OK(
        Offer(MakePlainBatch({reports.begin() + lo, reports.begin() + hi})));
  }
  return Status::OK();
}

Status PartitionWorker::OfferIndexed(
    uint64_t total, std::function<Result<DecodedRow>(uint64_t row)> decode) {
  return OfferIndexedPrepared(total, nullptr, std::move(decode));
}

Status PartitionWorker::OfferIndexedPrepared(
    uint64_t total,
    std::function<Status(uint64_t lo, uint64_t hi, ThreadPool* pool)>
        prepare,
    std::function<Result<DecodedRow>(uint64_t row)> decode) {
  const uint64_t batch_size = std::max<size_t>(1, options_.batch_size);
  for (uint64_t lo = 0; lo < total; lo += batch_size) {
    const uint64_t hi = std::min(total, lo + batch_size);
    ReportBatch batch;
    batch.count = hi - lo;
    if (prepare) {
      batch.prepare = [prepare, lo, hi](ThreadPool* pool) {
        return prepare(lo, hi, pool);
      };
    }
    batch.decode = [decode, lo](uint64_t i) { return decode(lo + i); };
    SHUFFLEDP_RETURN_NOT_OK(Offer(std::move(batch)));
  }
  return Status::OK();
}

std::future<Result<RoundResult>> PartitionWorker::CloseRound(
    uint64_t n, uint64_t n_fake, Calibration calibration) {
  EnsureConsumer();
  auto close = std::make_shared<RoundClose>();
  close->n = n;
  close->n_fake = n_fake;
  close->calibration = calibration;
  std::future<Result<RoundResult>> future = close->promise.get_future();
  WorkItem item;
  item.close = close;
  if (!queue_.Push(std::move(item))) {
    Status error = PipelineError();
    close->promise.set_value(
        error.ok() ? Status::FailedPrecondition(
                         "partition worker: pipeline is shut down")
                   : error);
  }
  return future;
}

Result<RoundResult> PartitionWorker::FinishRound(uint64_t n,
                                                 uint64_t n_fake,
                                                 Calibration calibration) {
  Result<RoundResult> result = CloseRound(n, n_fake, calibration).get();
  if (!result.ok()) ResetAfterError();
  return result;
}

Result<uint64_t> PartitionWorker::RecoverRound(
    const CheckpointState& state) {
  {
    std::lock_guard<std::mutex> lock(consumer_mu_);
    if (consumer_.joinable()) {
      return Status::FailedPrecondition(
          "RecoverRound requires a fresh worker (nothing offered yet)");
    }
  }
  if (state.partition_index != slice_.index ||
      state.partition_count != slice_.count || state.slice_lo != slice_.lo) {
    return Status::FailedPrecondition(
        "round state belongs to partition " +
        std::to_string(state.partition_index) + "/" +
        std::to_string(state.partition_count) + " (slice lo " +
        std::to_string(state.slice_lo) + "), not this worker's " +
        std::to_string(slice_.index) + "/" + std::to_string(slice_.count));
  }
  SHUFFLEDP_RETURN_NOT_OK(counter_->Restore(state.supports));
  if (store_ != nullptr) persisted_supports_ = state.supports;
  rows_seen_ = state.rows_seen;
  batches_seen_ = state.batches_consumed;
  reports_decoded_ = state.reports_decoded;
  reports_invalid_ = state.reports_invalid;
  dummies_recognized_ = state.dummies_recognized;
  dummies_expected_ = state.dummies_expected;
  dummy_multiset_ = state.dummies_remaining;
  round_id_.store(state.round_id, std::memory_order_relaxed);
  return state.batches_consumed;
}

Result<RoundResult> PartitionWorker::RecoverFinalizedRound(
    const RoundJournal& journal) {
  {
    std::lock_guard<std::mutex> lock(consumer_mu_);
    if (consumer_.joinable()) {
      return Status::FailedPrecondition(
          "RecoverFinalizedRound requires a fresh worker");
    }
  }
  if (journal.partition_index != slice_.index ||
      journal.partition_count != slice_.count ||
      journal.slice_lo != slice_.lo) {
    return Status::FailedPrecondition(
        "round journal belongs to a different partition");
  }
  if (journal.supports.size() != slice_.hi - slice_.lo) {
    return Status::InvalidArgument(
        "round journal supports do not match the owned slice");
  }
  if (journal.calibration > static_cast<uint8_t>(Calibration::kNone)) {
    return Status::InvalidArgument("round journal calibration out of range");
  }
  // The journaled round is closed; the worker resumes feeding the next
  // one. Replay = the same deterministic finalize/calibrate the drain
  // task would have run.
  round_id_.store(journal.round_id + 1, std::memory_order_relaxed);
  return FinalizeRoundResult(
      oracle_, journal.supports, journal.n, journal.n_fake,
      static_cast<Calibration>(journal.calibration), journal.reports_decoded,
      journal.reports_invalid, journal.dummies_recognized,
      journal.dummies_expected);
}

void PartitionWorker::ConsumerLoop() {
  WorkItem item;
  while (queue_.Pop(&item)) {
    // A registration or round close is ordered after every batch before
    // it, so the open group is written first, never folded with it.
    if (item.close != nullptr || !item.dummies.empty()) FlushGroup();
    if (item.close != nullptr) {
      ProcessRoundClose(item.close);
    } else if (!item.dummies.empty()) {
      if (!round_status_.ok()) continue;
      for (const auto& entry : item.dummies) {
        ++dummy_multiset_[entry];
        ++dummies_expected_;
      }
      if (store_ != nullptr && !durability_degraded_) {
        // Registrations mutate the round's dummy multiset between
        // batches, so they are durable state too: one batch-free delta
        // record per registration item (batch_lo == batch_hi).
        RoundDelta delta;
        delta.round_id = round_id_.load(std::memory_order_relaxed);
        delta.batch_lo = batches_seen_;
        delta.batch_hi = batches_seen_;
        std::map<std::pair<uint64_t, uint64_t>, uint64_t> grouped;
        for (const auto& entry : item.dummies) ++grouped[entry];
        delta.dummies_registered.reserve(grouped.size());
        for (const auto& [key, count] : grouped) {
          delta.dummies_registered.emplace_back(key.first, key.second,
                                                count);
        }
        if (!PersistDelta(delta)) continue;
      }
    } else {
      if (!round_status_.ok()) continue;  // drain without processing
      ProcessBatch(item.batch);
    }
    item = WorkItem();  // release batch captures before blocking in Pop
    // Group commit: write the group once nothing else is queued (so the
    // consumer never idles on an unsynced group) or once it spans a full
    // queue's worth of batches. The consumer is the only popper, so an
    // empty queue here stays empty until the next Pop.
    if (group_batches_ >= queue_.capacity() || queue_.size() == 0) {
      FlushGroup();
    }
  }
}

void PartitionWorker::FailRound(Status status) {
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    round_status_ = std::move(status);
  }
  // Unblock any producer stuck in Push; their Offer reports the error.
  queue_.Close();
}

Status PartitionWorker::PipelineError() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return round_status_;
}

void PartitionWorker::DegradeDurability(const Status& status) {
  durability_degraded_ = true;
  durability_warning_ = status.ToString();
  degraded_flag_.store(true, std::memory_order_relaxed);
}

bool PartitionWorker::PersistDelta(const RoundDelta& delta) {
  Status st = store_->AppendDelta(delta, nullptr);
  if (st.ok()) return true;
  if (IsDegradableStorageError(st)) {
    // Out of disk is not a reason to drop the round: finish it in
    // memory and let the result carry the durability warning.
    DegradeDurability(st);
    return true;
  }
  // Every other storage failure is a hard error — the operator asked
  // for durability, so continuing would be a silent downgrade.
  FailRound(st);
  return false;
}

bool PartitionWorker::KeepRow(const ldp::LdpReport& report, uint64_t tag,
                              bool fold) {
  if (!oracle_.ValidateReport(report).ok()) return false;
  if (!dummy_multiset_.empty()) {
    auto it = dummy_multiset_.find({ldp::PackReport(report), tag});
    if (it != dummy_multiset_.end() && it->second > 0) {
      --it->second;
      ++dummies_recognized_;
      if (fold) ++group_dummies_[it->first];
      return true;  // server-planted dummy: strip before estimation
    }
  }
  kept_.push_back(report);
  return true;
}

void PartitionWorker::ProcessBatch(const ReportBatch& batch) {
  WallTimer timer;
  const uint64_t batch_lo = batches_seen_;
  const uint64_t invalid_before = reports_invalid_;
  const bool fold = store_ != nullptr && !durability_degraded_;
  if (fold && group_batches_ == 0) {  // open a new group at this batch
    group_ = RoundDelta();
    group_.batch_lo = batch_lo;
    group_dummies_.clear();
  }
  ++batches_seen_;
  rows_seen_ += batch.count;

  if (batch.prepare) {
    Status prep_status = batch.prepare(options_.pool);
    if (!prep_status.ok()) {
      FailRound(prep_status);
      return;
    }
  }

  kept_.clear();
  kept_.reserve(batch.count);
  if (!batch.decode) {
    // Ordinal batch: unpack, validate and strip dummies in one pass.
    for (uint64_t ordinal : batch.ordinals) {
      Result<ldp::LdpReport> report = oracle_.UnpackOrdinal(ordinal);
      // A padding ordinal is an invalid row, not a protocol failure.
      if (!report.ok() || !KeepRow(*report, /*tag=*/0, fold)) {
        ++reports_invalid_;
      }
    }
  } else {
    std::vector<DecodedRow> rows(batch.count);
    std::mutex status_mu;
    Status decode_status = Status::OK();
    std::atomic<bool> failed{false};
    ForChunks(options_.pool, 0, batch.count, kDecodeChunk,
              [&](uint64_t lo, uint64_t hi) {
                for (uint64_t i = lo; i < hi; ++i) {
                  // Stop burning crypto on rows whose batch already failed.
                  if (failed.load(std::memory_order_relaxed)) return;
                  auto row = batch.decode(i);
                  if (!row.ok()) {
                    failed.store(true, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(status_mu);
                    if (decode_status.ok()) decode_status = row.status();
                    return;
                  }
                  rows[i] = std::move(row).value();
                }
              });
    if (!decode_status.ok()) {
      FailRound(decode_status);
      return;
    }
    for (const DecodedRow& row : rows) {
      if (!row.valid || !KeepRow(row.report, row.tag, fold)) {
        ++reports_invalid_;
      }
    }
  }
  reports_decoded_ += kept_.size();
  // Split visibility: everything up to here (prepare, decode fan-out,
  // validation, dummy stripping) is decode cost; the AccumulateBatch
  // call is pure support accumulation — the two dominate SOLH and GRR
  // rounds respectively, and the bench reports them separately.
  const double decode_done = timer.ElapsedSeconds();
  counter_->AccumulateBatch(kept_, options_.pool);
  const double batch_done = timer.ElapsedSeconds();
  decode_seconds_ += decode_done;
  support_eval_seconds_ += batch_done - decode_done;
  rows_aggregated_ += kept_.size();
  busy_seconds_ += batch_done;

  if (!fold) return;
  ++group_batches_;
  group_.batch_hi = batches_seen_;
  group_.rows_delta += batch.count;
  group_.decoded_delta += kept_.size();
  group_.invalid_delta += reports_invalid_ - invalid_before;
}

void PartitionWorker::FlushGroup() {
  if (group_batches_ == 0) return;
  if (round_status_.ok() && !durability_degraded_) {
    group_.round_id = round_id_.load(std::memory_order_relaxed);
    // Diff the counter's contiguous counts view against the shadow of
    // what the store has already seen, updating the shadow in place at
    // the changed slots — once per group, not once per batch, and
    // O(slice width) however many batches the group covers. The result
    // is the sorted list of (index, +count) for every slot the group's
    // kept rows supported.
    const std::vector<uint64_t>& current = counter_->counts();
    for (size_t i = 0; i < current.size(); ++i) {
      if (current[i] != persisted_supports_[i]) {
        group_.support_deltas.emplace_back(
            i, current[i] - persisted_supports_[i]);
        persisted_supports_[i] = current[i];
      }
    }
    group_.dummies_consumed.reserve(group_dummies_.size());
    for (const auto& [key, count] : group_dummies_) {
      group_.dummies_consumed.emplace_back(key.first, key.second, count);
    }
    PersistDelta(group_);
  }
  group_batches_ = 0;
}

void PartitionWorker::ProcessRoundClose(
    const std::shared_ptr<RoundClose>& close) {
  if (!round_status_.ok()) {
    close->promise.set_value(round_status_);
    return;
  }

  StreamingStats stats;
  stats.batches = batches_seen_;
  stats.rows = rows_seen_;
  stats.backpressure_waits =
      queue_.producer_waits() - waits_at_round_start_;
  stats.queue_high_water = queue_.high_water_mark();
  stats.busy_seconds = busy_seconds_;
  stats.rows_aggregated = rows_aggregated_;
  stats.decode_seconds = decode_seconds_;
  stats.support_eval_seconds = support_eval_seconds_;
  stats.wall_seconds = round_timer_.ElapsedSeconds();
  stats.rows_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(rows_seen_) / stats.wall_seconds
          : 0.0;

  // With persistence on, make the *finalized* round durable before
  // dropping the mid-round state: everything downstream (Finalize merge
  // + calibration) is deterministic, so the journal alone can reproduce
  // the round result bitwise after a crash in the close/read window. The
  // journaled supports feed the drain task too — finalizing once keeps
  // the two observers trivially identical.
  const uint64_t closed_round = round_id_.load(std::memory_order_relaxed);
  std::vector<uint64_t> finalized;
  bool prefinalized = false;
  if (store_ != nullptr && !durability_degraded_) {
    finalized = counter_->Finalize();
    prefinalized = true;
    RoundJournal journal;
    journal.round_id = closed_round;
    journal.partition_index = slice_.index;
    journal.partition_count = slice_.count;
    journal.slice_lo = slice_.lo;
    journal.n = close->n;
    journal.n_fake = close->n_fake;
    journal.calibration = static_cast<uint8_t>(close->calibration);
    journal.reports_decoded = reports_decoded_;
    journal.reports_invalid = reports_invalid_;
    journal.dummies_recognized = dummies_recognized_;
    journal.dummies_expected = dummies_expected_;
    journal.supports = finalized;
    Status st = store_->FinalizeRound(journal, batches_seen_);
    if (!st.ok()) {
      if (IsDegradableStorageError(st)) {
        // Same degrade contract as a mid-round ENOSPC: the result is
        // complete in memory, so hand it out with the warning instead
        // of poisoning the round.
        DegradeDurability(st);
      } else {
        FailRound(st);
        close->promise.set_value(st);
        return;
      }
    }
  }

  // Double-buffer swap: wait until the previous round's finalize task has
  // released the back buffer, then hand it the counter we just filled and
  // keep ingesting the next round into the freshly reset one.
  if (drain_done_.valid()) drain_done_.wait();
  std::swap(counter_, drain_counter_);

  // This round is fully accumulated (and, when durable, finalized in the
  // store); its mid-round state is stale. The close happens here
  // (synchronously) rather than in the drain task so retention GC can
  // never race the *next* round's writes. A close failure is
  // deliberately ignored: the result is already durable (or the round
  // already degraded), and a resurrected closed round is re-collected at
  // the next compaction.
  if (store_ != nullptr) {
    (void)store_->CloseRound(closed_round);
  }

  struct DrainJob {
    std::shared_ptr<RoundClose> close;
    ShardedSupportCounter* drained;
    const ldp::ScalarFrequencyOracle* oracle;
    uint64_t reports_decoded, reports_invalid, dummies_recognized;
    uint64_t dummies_expected;
    std::vector<uint64_t> finalized;  // pre-merged when journaled
    bool prefinalized = false;
    bool durability_degraded = false;
    std::string durability_warning;
    StreamingStats stats;

    void Run() {
      RoundResult result = FinalizeRoundResult(
          *oracle, prefinalized ? std::move(finalized) : drained->Finalize(),
          close->n, close->n_fake, close->calibration, reports_decoded,
          reports_invalid, dummies_recognized, dummies_expected);
      result.durability_degraded = durability_degraded;
      result.durability_warning = std::move(durability_warning);
      result.stats = stats;
      drained->Reset();  // back buffer ready for the next swap
      close->promise.set_value(std::move(result));
    }
  };
  auto job = std::make_shared<DrainJob>();
  job->close = close;
  job->drained = drain_counter_.get();
  job->oracle = &oracle_;
  job->reports_decoded = reports_decoded_;
  job->reports_invalid = reports_invalid_;
  job->dummies_recognized = dummies_recognized_;
  job->dummies_expected = dummies_expected_;
  job->finalized = std::move(finalized);
  job->prefinalized = prefinalized;
  job->durability_degraded = durability_degraded_;
  job->durability_warning = durability_warning_;
  job->stats = stats;

  // Advance the round *before* the drain can fulfill the promise, so a
  // caller that observed the round result never sees the old round id.
  ResetRoundTallies();
  round_id_.fetch_add(1, std::memory_order_relaxed);

  if (options_.pool != nullptr) {
    auto done = std::make_shared<std::promise<void>>();
    drain_done_ = done->get_future();
    options_.pool->Submit([job, done] {
      job->Run();
      done->set_value();
    });
  } else {
    job->Run();
    drain_done_ = std::future<void>();
  }
}

void PartitionWorker::ResetAfterError() {
  // FailRound closed the queue, so the consumer drains and exits; join
  // it, flush any pending drain, and rebuild a clean pipeline.
  {
    std::lock_guard<std::mutex> lock(consumer_mu_);
    if (consumer_.joinable()) consumer_.join();
    consumer_ = std::thread();
  }
  if (drain_done_.valid()) {
    drain_done_.wait();
    drain_done_ = std::future<void>();
  }
  counter_->Reset();
  drain_counter_->Reset();
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    round_status_ = Status::OK();
  }
  // The aborted round's durable state is poison: recovering from it
  // would resurrect half-aggregated state for a round already reported
  // failed. (Previously *finalized* rounds stay — they are still the
  // durable record of their results.)
  if (store_ != nullptr) {
    (void)store_->AbandonRound(round_id_.load(std::memory_order_relaxed));
  }
  ResetRoundTallies();
  round_id_.fetch_add(1, std::memory_order_relaxed);
  queue_.Reopen();
}

}  // namespace service
}  // namespace shuffledp
