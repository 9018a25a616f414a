#include "ldp/wire.h"

namespace shuffledp {
namespace ldp {

size_t WireReportBytes(const ScalarFrequencyOracle& oracle) {
  return (oracle.PackedBits() + 7) / 8;
}

namespace {

// One fixed-width big-endian ordinal, one width per instantiation so the
// byte loop unrolls into shifts and stores.
template <size_t W>
void PutOrdinalBigEndian(uint64_t v, uint8_t* out) {
  for (size_t b = W; b-- > 0; v >>= 8) out[b] = static_cast<uint8_t>(v);
}

// Ordinal i goes to slot ranks[i] of bases[owners[i]] (slot i of
// bases[0] when `owners` is null). Slots come precomputed, so no write
// waits on an earlier one's cursor update.
template <size_t W>
void ScatterOrdinalsBigEndian(const uint64_t* in, size_t count,
                              const uint16_t* owners, const uint32_t* ranks,
                              uint8_t* const* bases) {
  if (owners == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      PutOrdinalBigEndian<W>(in[i], bases[0] + i * W);
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    PutOrdinalBigEndian<W>(in[i], bases[owners[i]] + size_t{ranks[i]} * W);
  }
}

// Returns the OR of every ordinal read, so the caller range-checks the
// batch with one test.
template <size_t W>
uint64_t GetOrdinalsBigEndian(const uint8_t* in, size_t count,
                              uint64_t* out) {
  uint64_t seen = 0;
  for (size_t i = 0; i < count; ++i, in += W) {
    uint64_t v = 0;
    for (size_t b = 0; b < W; ++b) v = (v << 8) | in[b];
    out[i] = v;
    seen |= v;
  }
  return seen;
}

}  // namespace

void ScatterOrdinals(const ScalarFrequencyOracle& oracle,
                     const uint64_t* ordinals, size_t count,
                     const uint16_t* owners, const uint32_t* ranks,
                     uint8_t* const* bases) {
  const uint64_t* in = ordinals;
  switch (WireReportBytes(oracle)) {
    case 1: ScatterOrdinalsBigEndian<1>(in, count, owners, ranks, bases); break;
    case 2: ScatterOrdinalsBigEndian<2>(in, count, owners, ranks, bases); break;
    case 3: ScatterOrdinalsBigEndian<3>(in, count, owners, ranks, bases); break;
    case 4: ScatterOrdinalsBigEndian<4>(in, count, owners, ranks, bases); break;
    case 5: ScatterOrdinalsBigEndian<5>(in, count, owners, ranks, bases); break;
    case 6: ScatterOrdinalsBigEndian<6>(in, count, owners, ranks, bases); break;
    case 7: ScatterOrdinalsBigEndian<7>(in, count, owners, ranks, bases); break;
    case 8: ScatterOrdinalsBigEndian<8>(in, count, owners, ranks, bases); break;
  }
}

Bytes SerializeOrdinals(const ScalarFrequencyOracle& oracle,
                        const std::vector<uint64_t>& ordinals) {
  const size_t count = ordinals.size();
  Bytes out(VarintSize(count) + count * WireReportBytes(oracle));
  uint8_t* const base = WriteVarint(out.data(), count);
  ScatterOrdinals(oracle, ordinals.data(), count, nullptr, nullptr, &base);
  return out;
}

Result<std::vector<uint64_t>> ParseOrdinals(
    const ScalarFrequencyOracle& oracle, const Bytes& wire) {
  return ParseOrdinals(oracle, wire.data(), wire.size());
}

Result<std::vector<uint64_t>> ParseOrdinals(
    const ScalarFrequencyOracle& oracle, const uint8_t* data, size_t len) {
  const size_t width = WireReportBytes(oracle);
  const unsigned bits = oracle.PackedBits();
  ByteReader reader(data, len);
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
  // Divide instead of multiplying: a hostile count (e.g. 2^61 with an
  // 8-byte width) would overflow count * width to a small value, slip
  // past the length check, and drive a huge allocation below.
  if (count > reader.Remaining() / width ||
      count * width != reader.Remaining()) {
    return Status::DataLoss("report payload has wrong length");
  }
  // The check above proved the block is exactly count * width bytes, so
  // the decode reads by pointer without further bounds checks.
  const uint8_t* in = data + (len - reader.Remaining());
  std::vector<uint64_t> out(count);
  uint64_t* dst = out.data();
  uint64_t seen = 0;
  switch (width) {
    case 1: seen = GetOrdinalsBigEndian<1>(in, count, dst); break;
    case 2: seen = GetOrdinalsBigEndian<2>(in, count, dst); break;
    case 3: seen = GetOrdinalsBigEndian<3>(in, count, dst); break;
    case 4: seen = GetOrdinalsBigEndian<4>(in, count, dst); break;
    case 5: seen = GetOrdinalsBigEndian<5>(in, count, dst); break;
    case 6: seen = GetOrdinalsBigEndian<6>(in, count, dst); break;
    case 7: seen = GetOrdinalsBigEndian<7>(in, count, dst); break;
    case 8: seen = GetOrdinalsBigEndian<8>(in, count, dst); break;
  }
  // The width rounds PackedBits up to whole bytes; bits smuggled into
  // the rounding slack are rejected, padding-region ordinals are not.
  if (bits < 64 && (seen >> bits) != 0) {
    return Status::DataLoss("ordinal exceeds the packed report space");
  }
  return out;
}

Bytes SerializeReports(const ScalarFrequencyOracle& oracle,
                       const std::vector<LdpReport>& reports) {
  std::vector<uint64_t> ordinals;
  ordinals.reserve(reports.size());
  for (const LdpReport& r : reports) ordinals.push_back(oracle.PackOrdinal(r));
  return SerializeOrdinals(oracle, ordinals);
}

Result<std::vector<LdpReport>> ParseReports(
    const ScalarFrequencyOracle& oracle, const Bytes& wire) {
  SHUFFLEDP_ASSIGN_OR_RETURN(std::vector<uint64_t> ordinals,
                             ParseOrdinals(oracle, wire));
  std::vector<LdpReport> out;
  out.reserve(ordinals.size());
  for (uint64_t ordinal : ordinals) {
    SHUFFLEDP_ASSIGN_OR_RETURN(LdpReport rep, oracle.UnpackOrdinal(ordinal));
    SHUFFLEDP_RETURN_NOT_OK(oracle.ValidateReport(rep));
    out.push_back(rep);
  }
  return out;
}

Bytes PackUnaryBits(const std::vector<uint8_t>& bits) {
  Bytes out((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return out;
}

Result<std::vector<uint8_t>> UnpackUnaryBits(const Bytes& packed,
                                             uint64_t d) {
  if (packed.size() != (d + 7) / 8) {
    return Status::DataLoss("unary payload has wrong length");
  }
  // Padding bits beyond d must be zero (reject smuggled data).
  for (uint64_t i = d; i < packed.size() * 8; ++i) {
    if (packed[i / 8] & (1u << (i % 8))) {
      return Status::DataLoss("unary payload has nonzero padding");
    }
  }
  std::vector<uint8_t> bits(d);
  for (uint64_t i = 0; i < d; ++i) {
    bits[i] = (packed[i / 8] >> (i % 8)) & 1;
  }
  return bits;
}

}  // namespace ldp
}  // namespace shuffledp
