#include "service/partition.h"

#include <algorithm>

namespace shuffledp {
namespace service {

Result<PartitionMap> PartitionMap::Create(
    const ldp::ScalarFrequencyOracle& oracle, PartitionMode mode,
    uint32_t partitions) {
  if (partitions == 0) {
    return Status::InvalidArgument("partition map: need >= 1 partition");
  }
  if (partitions > 0xFFFF) {
    // The frame header carries the partition id as a u16; a map the wire
    // cannot express must fail here, not as a garbled handshake later.
    return Status::InvalidArgument(
        "partition map: " + std::to_string(partitions) +
        " partitions exceeds the u16 wire field");
  }
  const uint64_t d = oracle.domain_size();
  if (mode == PartitionMode::kByValue) {
    if (!oracle.SupportIsValueEquality()) {
      return Status::InvalidArgument(
          "kByValue partitioning requires a value-equality oracle (" +
          oracle.Name() +
          " reports support values across the whole domain; use kByClient)");
    }
    if (partitions > d) {
      return Status::InvalidArgument(
          "partition map: more partitions than domain values");
    }
  }
  PartitionMap map;
  map.mode_ = mode;
  map.partitions_ = partitions;
  map.domain_size_ = d;
  map.packed_bits_ = oracle.PackedBits();
  map.BuildOwnerIndex();
  return map;
}

void PartitionMap::BuildOwnerIndex() {
  slice_bounds_.clear();
  range_limit_ = 0;
  if (mode_ != PartitionMode::kByValue || partitions_ <= 1) return;
  range_limit_ = domain_size_;
  slice_bounds_.reserve(partitions_ - 1);
  for (uint32_t p = 0; p + 1 < partitions_; ++p) {
    slice_bounds_.push_back(SliceOf(p).hi);
  }
}

PartitionSlice PartitionMap::SliceOf(uint32_t p) const {
  PartitionSlice slice;
  slice.index = p;
  slice.count = partitions_;
  if (mode_ == PartitionMode::kByValue && domain_size_ > 0) {
    slice.lo = domain_size_ * p / partitions_;
    slice.hi = domain_size_ * (p + 1) / partitions_;
  }
  return slice;
}

Status PartitionMap::AdmitOrdinals(
    uint32_t p, const std::vector<uint64_t>& ordinals) const {
  if (mode_ != PartitionMode::kByValue || partitions_ <= 1) {
    return Status::OK();
  }
  for (uint64_t ordinal : ordinals) {
    const uint32_t owner = OwnerOfOrdinal(ordinal);
    if (owner != p) {
      return Status::ProtocolViolation(
          "batch contains ordinal " + std::to_string(ordinal) +
          " owned by partition " + std::to_string(owner) +
          ", not this endpoint's " + std::to_string(p));
    }
  }
  return Status::OK();
}

uint32_t PartitionMap::OwnerOfBatch(uint64_t batch_index) const {
  return partitions_ <= 1
             ? 0
             : static_cast<uint32_t>(batch_index % partitions_);
}

std::vector<std::vector<uint64_t>> PartitionMap::Route(
    uint64_t batch_index, const std::vector<uint64_t>& ordinals) const {
  std::vector<std::vector<uint64_t>> groups(partitions_);
  if (partitions_ <= 1) {
    groups[0] = ordinals;
    return groups;
  }
  if (mode_ == PartitionMode::kByClient) {
    groups[OwnerOfBatch(batch_index)] = ordinals;
    return groups;
  }
  // Count, then fill: every group is allocated once at its exact size.
  std::vector<size_t> sizes(partitions_, 0);
  for (uint64_t ordinal : ordinals) ++sizes[OwnerOfOrdinal(ordinal)];
  for (uint32_t p = 0; p < partitions_; ++p) groups[p].reserve(sizes[p]);
  for (uint64_t ordinal : ordinals) {
    groups[OwnerOfOrdinal(ordinal)].push_back(ordinal);
  }
  return groups;
}

Result<std::vector<uint64_t>> PartitionMap::MergeSupports(
    const std::vector<std::vector<uint64_t>>& parts) const {
  if (parts.size() != partitions_) {
    return Status::InvalidArgument(
        "merge-of-supports: expected " + std::to_string(partitions_) +
        " parts, got " + std::to_string(parts.size()));
  }
  std::vector<uint64_t> merged;
  if (mode_ == PartitionMode::kByValue) {
    merged.reserve(domain_size_);
    for (uint32_t p = 0; p < partitions_; ++p) {
      const PartitionSlice slice = SliceOf(p);
      if (parts[p].size() != slice.hi - slice.lo) {
        return Status::InvalidArgument(
            "merge-of-supports: partition " + std::to_string(p) +
            " returned " + std::to_string(parts[p].size()) +
            " supports for a slice of " +
            std::to_string(slice.hi - slice.lo));
      }
      merged.insert(merged.end(), parts[p].begin(), parts[p].end());
    }
    return merged;
  }
  merged.assign(domain_size_, 0);
  for (uint32_t p = 0; p < partitions_; ++p) {
    if (parts[p].size() != domain_size_) {
      return Status::InvalidArgument(
          "merge-of-supports: partition " + std::to_string(p) +
          " returned " + std::to_string(parts[p].size()) +
          " supports for a domain of " + std::to_string(domain_size_));
    }
    for (uint64_t v = 0; v < domain_size_; ++v) merged[v] += parts[p][v];
  }
  return merged;
}

std::string PartitionMap::ToString() const {
  return std::string(mode_ == PartitionMode::kByValue ? "by-value"
                                                      : "by-client") +
         "/" + std::to_string(partitions_) + " over d=" +
         std::to_string(domain_size_);
}

Bytes SerializePartitionMap(const PartitionMap& map) {
  ByteWriter w(16);
  w.PutU8(static_cast<uint8_t>(map.mode_));
  w.PutVarint(map.partitions_);
  w.PutVarint(map.domain_size_);
  w.PutU8(static_cast<uint8_t>(map.packed_bits_));
  return w.Release();
}

Result<PartitionMap> ParsePartitionMap(const Bytes& payload) {
  ByteReader r(payload);
  return ParsePartitionMap(&r);
}

Result<PartitionMap> ParsePartitionMap(ByteReader* reader) {
  ByteReader& r = *reader;
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t mode, r.GetU8());
  if (mode > static_cast<uint8_t>(PartitionMode::kByClient)) {
    return Status::ProtocolViolation("unknown partition mode " +
                                     std::to_string(mode));
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t partitions, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t domain, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t bits, r.GetU8());
  if (partitions == 0 || partitions > 0xFFFF) {
    return Status::ProtocolViolation("partition count out of range");
  }
  if (bits > 64) {
    return Status::ProtocolViolation("packed bits out of range");
  }
  PartitionMap map;
  map.mode_ = static_cast<PartitionMode>(mode);
  map.partitions_ = static_cast<uint32_t>(partitions);
  map.domain_size_ = domain;
  map.packed_bits_ = bits;
  map.BuildOwnerIndex();
  return map;
}

}  // namespace service
}  // namespace shuffledp
