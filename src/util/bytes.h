// Byte-level serialization used by the protocol layer.
//
// Every message that crosses a simulated network channel is serialized
// through ByteWriter / ByteReader so that the communication accounting in
// Table III measures real wire bytes, not in-memory object sizes.
// Integers are little-endian fixed width or LEB128 varints.

#ifndef SHUFFLEDP_UTIL_BYTES_H_
#define SHUFFLEDP_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace shuffledp {

using Bytes = std::vector<uint8_t>;

/// Length of `v` as a LEB128 varint (1-10 bytes).
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Writes `v` as a LEB128 varint at `out` (VarintSize(v) bytes) and
/// returns one past the last byte written.
inline uint8_t* WriteVarint(uint8_t* out, uint64_t v) {
  for (; v >= 0x80; v >>= 7) *out++ = static_cast<uint8_t>(v) | 0x80;
  *out++ = static_cast<uint8_t>(v);
  return out;
}

/// Appends primitive values to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Reserves capacity up-front to avoid reallocation in hot loops.
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }

  /// LEB128 unsigned varint (1-10 bytes).
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Raw bytes without a length prefix.
  void PutBytes(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void PutBytes(const Bytes& data) { PutBytes(data.data(), data.size()); }

  /// Length-prefixed (varint) byte string.
  void PutLengthPrefixed(const Bytes& data) {
    PutVarint(data.size());
    PutBytes(data);
  }
  void PutLengthPrefixed(const std::string& data) {
    PutVarint(data.size());
    PutBytes(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  /// IEEE-754 double, little-endian bit pattern.
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  size_t size() const { return buf_.size(); }
  const Bytes& data() const { return buf_; }
  Bytes Release() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Sequentially decodes a byte buffer; every accessor checks bounds and
/// returns DataLoss on truncation.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : p_(data), end_(data + len) {}
  explicit ByteReader(const Bytes& data)
      : ByteReader(data.data(), data.size()) {}

  Result<uint8_t> GetU8() {
    if (Remaining() < 1) return Truncated("u8");
    return *p_++;
  }
  Result<uint16_t> GetU16() { return GetLittleEndian<uint16_t>(); }
  Result<uint32_t> GetU32() { return GetLittleEndian<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetLittleEndian<uint64_t>(); }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (p_ < end_ && shift < 64) {
      uint8_t b = *p_++;
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    return Truncated("varint");
  }

  Result<Bytes> GetBytes(size_t len) {
    if (Remaining() < len) return Truncated("bytes");
    Bytes out(p_, p_ + len);
    p_ += len;
    return out;
  }

  Result<Bytes> GetLengthPrefixed() {
    auto len = GetVarint();
    if (!len.ok()) return len.status();
    return GetBytes(static_cast<size_t>(*len));
  }

  Result<double> GetDouble() {
    auto bits = GetU64();
    if (!bits.ok()) return bits.status();
    double v;
    uint64_t b = *bits;
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }
  bool AtEnd() const { return p_ == end_; }

 private:
  template <typename T>
  Result<T> GetLittleEndian() {
    if (Remaining() < sizeof(T)) return Truncated("fixed int");
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p_[i]) << (8 * i);
    }
    p_ += sizeof(T);
    return v;
  }

  static Status Truncated(const char* what) {
    return Status::DataLoss(std::string("truncated payload reading ") + what);
  }

  const uint8_t* p_;
  const uint8_t* end_;
};

/// Hex encoding for debugging and test vectors.
std::string ToHex(const Bytes& data);

/// Parses a hex string (no separators). Returns DataLoss on bad input.
Result<Bytes> FromHex(const std::string& hex);

}  // namespace shuffledp

#endif  // SHUFFLEDP_UTIL_BYTES_H_
