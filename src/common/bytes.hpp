// Byte-buffer helpers: hex codec, big-endian integer packing and a simple
// serialization cursor used by the protocol message codecs.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace qkd {

using Bytes = std::vector<std::uint8_t>;

std::string to_hex(std::span<const std::uint8_t> data);
Bytes from_hex(std::string_view hex);  // throws std::invalid_argument

/// Appends `v` to `out` in big-endian byte order.
void put_u8(Bytes& out, std::uint8_t v);
void put_u16(Bytes& out, std::uint16_t v);
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);
/// LEB128-style unsigned varint (used by the sifting run-length codec).
inline void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_bytes(Bytes& out, std::span<const std::uint8_t> data);

/// Sequential reader over a byte span; all reads throw std::out_of_range on
/// underrun, which message decoders translate into protocol errors.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  Bytes bytes(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Inline: the sifting announce reads one varint per click.
inline std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (shift >= 64) throw std::out_of_range("ByteReader::varint: overlong");
    if (pos_ >= data_.size()) throw std::out_of_range("ByteReader::u8");
    const std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

}  // namespace qkd
