// Forwarding wrappers that observe two of the library's abstract layer
// interfaces without touching the library: ldp::ScalarFrequencyOracle
// and service::RoundStore.
//
// Every virtual is forwarded to the wrapped object, including the ones
// with base-class defaults (SupportIsValueEquality, AccumulateSupports,
// SupportsMany, ValidateReport, the ordinal codec), so a traced round
// takes exactly the code paths of an untraced one — the benchmark checks
// that the two produce bitwise-identical estimates.

#ifndef PERFBENCH_LAYER_WRAPPERS_H_
#define PERFBENCH_LAYER_WRAPPERS_H_

#include <memory>
#include <string>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "service/round_store.h"

namespace perfbench {

/// Times bulk support evaluation as spans; counts Encode and
/// UnpackOrdinal (and times Encode in aggregate) instead of spanning
/// these per-row calls.
class TracingOracle : public shuffledp::ldp::ScalarFrequencyOracle {
 public:
  /// Borrows `inner`, which must outlive the wrapper.
  explicit TracingOracle(const shuffledp::ldp::ScalarFrequencyOracle& inner)
      : inner_(inner) {}

  std::string Name() const override { return inner_.Name(); }
  uint64_t domain_size() const override { return inner_.domain_size(); }
  uint64_t report_domain() const override { return inner_.report_domain(); }
  double epsilon_local() const override { return inner_.epsilon_local(); }

  shuffledp::ldp::LdpReport Encode(uint64_t v,
                                   shuffledp::Rng* rng) const override;
  bool Supports(const shuffledp::ldp::LdpReport& report,
                uint64_t v) const override {
    return inner_.Supports(report, v);
  }
  void AccumulateSupports(const shuffledp::ldp::LdpReport* reports,
                          size_t count, uint64_t value_lo, uint64_t value_hi,
                          uint64_t* counts) const override;
  uint64_t SupportsMany(const shuffledp::ldp::LdpReport* reports, size_t count,
                        uint64_t v) const override;
  shuffledp::ldp::LdpReport MakeFakeReport(
      shuffledp::Rng* rng) const override {
    return inner_.MakeFakeReport(rng);
  }
  shuffledp::ldp::SupportProbs support_probs() const override {
    return inner_.support_probs();
  }
  shuffledp::Status ValidateReport(
      const shuffledp::ldp::LdpReport& report) const override {
    return inner_.ValidateReport(report);
  }
  size_t ReportBytes() const override { return inner_.ReportBytes(); }
  bool SupportIsValueEquality() const override {
    return inner_.SupportIsValueEquality();
  }

  unsigned PackedBits() const override { return inner_.PackedBits(); }
  uint64_t PackOrdinal(
      const shuffledp::ldp::LdpReport& report) const override {
    return inner_.PackOrdinal(report);
  }
  shuffledp::Result<shuffledp::ldp::LdpReport> UnpackOrdinal(
      uint64_t ordinal) const override;
  double OrdinalFakeSupportProb() const override {
    return inner_.OrdinalFakeSupportProb();
  }

 private:
  const shuffledp::ldp::ScalarFrequencyOracle& inner_;
};

/// Spans every store operation and counts the serialized delta bytes.
class TracingRoundStore : public shuffledp::service::RoundStore {
 public:
  explicit TracingRoundStore(
      std::unique_ptr<shuffledp::service::RoundStore> inner)
      : inner_(std::move(inner)) {}

  bool WantsDeltas() const override { return inner_->WantsDeltas(); }
  shuffledp::Status AppendDelta(const shuffledp::service::RoundDelta& delta,
                                const SnapshotFn& snapshot) override;
  shuffledp::Status FinalizeRound(
      const shuffledp::service::RoundJournal& journal,
      uint64_t batches_consumed) override;
  shuffledp::Status CloseRound(uint64_t round_id) override;
  shuffledp::Status AbandonRound(uint64_t round_id) override;
  shuffledp::Result<std::vector<shuffledp::service::StoredRound>> LoadAll()
      override;
  shuffledp::Result<shuffledp::service::RoundLookup> Query(
      uint64_t round_id) override;

 private:
  std::unique_ptr<shuffledp::service::RoundStore> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_WRAPPERS_H_
