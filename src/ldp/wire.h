// Wire formats for LDP reports.
//
// The communication numbers in Table III and §VII-B rest on concrete
// encodings: scalar reports ship as fixed-width packed ordinals
// (ceil(B/8) bytes each — 8 B for SOLH with 32-bit seeds), unary reports
// as bit-packed vectors (d/8 bytes — the ~5 KB per Kosarak report the
// paper contrasts against). These helpers are the single source of truth
// for those sizes and are exercised by the protocol tests.

#ifndef SHUFFLEDP_LDP_WIRE_H_
#define SHUFFLEDP_LDP_WIRE_H_

#include <cstdint>
#include <vector>

#include "ldp/frequency_oracle.h"
#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace ldp {

/// Bytes per serialized scalar report for `oracle`: ceil(PackedBits/8).
size_t WireReportBytes(const ScalarFrequencyOracle& oracle);

/// Serializes reports as fixed-width big-endian packed ordinals,
/// prefixed with a varint count.
Bytes SerializeReports(const ScalarFrequencyOracle& oracle,
                       const std::vector<LdpReport>& reports);

/// Parses a SerializeReports payload; every report is validated.
Result<std::vector<LdpReport>> ParseReports(
    const ScalarFrequencyOracle& oracle, const Bytes& wire);

/// Serializes raw ordinals in [0, 2^PackedBits) with the exact layout of
/// SerializeReports (varint count + fixed-width big-endian values). This
/// is the batch payload of the collection transport (service/transport.h):
/// unlike SerializeReports it admits padding-region ordinals, which the
/// endpoint must accept — PEOS fake blankets are uniform over the padded
/// ordinal space, and the server drops padding decodes as invalid rows
/// rather than rejecting the batch.
Bytes SerializeOrdinals(const ScalarFrequencyOracle& oracle,
                        const std::vector<uint64_t>& ordinals);

/// The ordinal store behind SerializeOrdinals and the transport's batch
/// frames: writes `count` ordinals as fixed-width big-endian values,
/// `width` = WireReportBytes each, ordinal i at bases[owners[i]] +
/// ranks[i] · width. Null `owners` and `ranks` write them in order from
/// bases[0]. Every slot must lie inside its buffer.
void ScatterOrdinals(const ScalarFrequencyOracle& oracle,
                     const uint64_t* ordinals, size_t count,
                     const uint16_t* owners, const uint32_t* ranks,
                     uint8_t* const* bases);

/// Parses a SerializeOrdinals payload. Length and range (< 2^PackedBits)
/// are validated; report validity is not — decode each ordinal with
/// `oracle.UnpackOrdinal` and drop padding hits.
Result<std::vector<uint64_t>> ParseOrdinals(
    const ScalarFrequencyOracle& oracle, const Bytes& wire);

/// Same, over a raw byte range — for payloads where the ordinal block
/// follows a caller-parsed prefix (the transport's indexed batch frames)
/// and a subrange copy would be waste.
Result<std::vector<uint64_t>> ParseOrdinals(
    const ScalarFrequencyOracle& oracle, const uint8_t* data, size_t len);

/// Packs a 0/1 unary report into bits (LSB-first within each byte).
Bytes PackUnaryBits(const std::vector<uint8_t>& bits);

/// Inverse of PackUnaryBits for a d-bit report.
Result<std::vector<uint8_t>> UnpackUnaryBits(const Bytes& packed,
                                             uint64_t d);

}  // namespace ldp
}  // namespace shuffledp

#endif  // SHUFFLEDP_LDP_WIRE_H_
