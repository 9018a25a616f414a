#include "layer_wrappers.h"

#include "trace.h"

namespace perfbench {

using shuffledp::Result;
using shuffledp::Status;
using shuffledp::ldp::LdpReport;
using shuffledp::service::RoundDelta;
using shuffledp::service::RoundJournal;
using shuffledp::service::RoundLookup;
using shuffledp::service::StoredRound;

LdpReport TracingOracle::Encode(uint64_t v, shuffledp::Rng* rng) const {
  const int64_t start = NowNs();
  LdpReport report = inner_.Encode(v, rng);
  Tracer::Count(Counter::kEncodeNs, static_cast<uint64_t>(NowNs() - start));
  Tracer::Count(Counter::kEncodeCalls, 1);
  return report;
}

void TracingOracle::AccumulateSupports(const LdpReport* reports, size_t count,
                                       uint64_t value_lo, uint64_t value_hi,
                                       uint64_t* counts) const {
  ScopedSpan span(SpanKind::kAccumulate);
  inner_.AccumulateSupports(reports, count, value_lo, value_hi, counts);
}

uint64_t TracingOracle::SupportsMany(const LdpReport* reports, size_t count,
                                     uint64_t v) const {
  ScopedSpan span(SpanKind::kSupportsMany);
  return inner_.SupportsMany(reports, count, v);
}

Result<LdpReport> TracingOracle::UnpackOrdinal(uint64_t ordinal) const {
  Tracer::Count(Counter::kUnpackCalls, 1);
  return inner_.UnpackOrdinal(ordinal);
}

Status TracingRoundStore::AppendDelta(const RoundDelta& delta,
                                      const SnapshotFn& snapshot) {
  Status status = Status::OK();
  {
    ScopedSpan span(SpanKind::kStoreAppend);
    status = inner_->AppendDelta(delta, snapshot);
  }
  // Outside the span: re-serializing is the tracer's cost, not the store's.
  if (Tracer::enabled()) {
    Tracer::Count(Counter::kStoreDeltaBytes,
                  shuffledp::service::SerializeRoundDelta(delta).size());
  }
  return status;
}

Status TracingRoundStore::FinalizeRound(const RoundJournal& journal,
                                        uint64_t batches_consumed) {
  ScopedSpan span(SpanKind::kStoreFinalize);
  return inner_->FinalizeRound(journal, batches_consumed);
}

Status TracingRoundStore::CloseRound(uint64_t round_id) {
  ScopedSpan span(SpanKind::kStoreClose);
  return inner_->CloseRound(round_id);
}

Status TracingRoundStore::AbandonRound(uint64_t round_id) {
  ScopedSpan span(SpanKind::kStoreAbandon);
  return inner_->AbandonRound(round_id);
}

Result<std::vector<StoredRound>> TracingRoundStore::LoadAll() {
  ScopedSpan span(SpanKind::kStoreLoad);
  return inner_->LoadAll();
}

Result<RoundLookup> TracingRoundStore::Query(uint64_t round_id) {
  ScopedSpan span(SpanKind::kStoreQuery);
  return inner_->Query(round_id);
}

}  // namespace perfbench
