#include "src/crypto/sha1.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace qkd::crypto {

Sha1::Sha1()
    : h_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u},
      buffer_{} {}

void Sha1::update(std::span<const std::uint8_t> data) {
  if (finished_) throw std::logic_error("Sha1::update after finish");
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1::Digest Sha1::finish() {
  if (finished_) throw std::logic_error("Sha1::finish called twice");
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad = 0x80;
  // Pad with 0x80 then zeros until 8 bytes remain in the block.
  buffer_[buffered_++] = pad;
  if (buffered_ > 56) {
    while (buffered_ < 64) buffer_[buffered_++] = 0;
    process_block(buffer_.data());
    buffered_ = 0;
  }
  while (buffered_ < 56) buffer_[buffered_++] = 0;
  for (int i = 7; i >= 0; --i)
    buffer_[buffered_++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  process_block(buffer_.data());

  Digest digest;
  for (std::size_t i = 0; i < 5; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return digest;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

void Sha1::process_block(const std::uint8_t* block) {
  // A rolling 16-word schedule: round i >= 16 overwrites w[i % 16] with
  // rotl(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16], 1). Each 20-round group has
  // its own f and k, so no round branches on its index.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  const auto expand = [&w](int i) {
    const std::uint32_t x = std::rotl(
        w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15], 1);
    w[i & 15] = x;
    return x;
  };
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  };
  int i = 0;
  for (; i < 16; ++i) round((b & c) | (~b & d), 0x5A827999u, w[i]);
  for (; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999u, expand(i));
  for (; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1u, expand(i));
  for (; i < 60; ++i)
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, expand(i));
  for (; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6u, expand(i));
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

}  // namespace qkd::crypto
