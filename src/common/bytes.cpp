#include "src/common/bytes.hpp"

#include <stdexcept>

namespace qkd {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string s;
  s.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    s.push_back(kHexDigits[b >> 4]);
    s.push_back(kHexDigits[b & 0xf]);
  }
  return s;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("from_hex: odd-length input");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) << 4 |
                                            hex_value(hex[i + 1])));
  }
  return out;
}

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_bytes(Bytes& out, std::span<const std::uint8_t> data) {
  out.insert(out.end(), data.begin(), data.end());
}

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) throw std::out_of_range("ByteReader::u8");
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (remaining() < 2) throw std::out_of_range("ByteReader::u16");
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) throw std::out_of_range("ByteReader::u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) throw std::out_of_range("ByteReader::u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Bytes ByteReader::bytes(std::size_t n) {
  if (remaining() < n) throw std::out_of_range("ByteReader::bytes");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace qkd
