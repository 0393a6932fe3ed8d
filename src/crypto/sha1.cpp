#include "src/crypto/sha1.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "src/crypto/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
  return digest();
}

Sha1::Digest Sha1::digest() const {
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
  if (data.size() > 55) {
    s.update(data);
    return s.finish();
  }
  // The message, its 0x80 terminator and the 64-bit length fit one block,
  // built in the (zeroed) buffer.
  auto& block = s.buffer_;
  if (!data.empty()) std::memcpy(block.data(), data.data(), data.size());
  block[data.size()] = 0x80;
  const std::uint64_t bit_len = data.size() * 8;
  for (int i = 0; i < 8; ++i)
    block[63 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  s.process_block(block.data());
  return s.digest();
}

void Sha1::process_block(const std::uint8_t* block) {
#if defined(__x86_64__)
  if (detail::cpu_has_sha_ni()) return detail::sha1_compress_sha_ni(h_, block);
#endif
  detail::sha1_compress_portable(h_, block);
}

namespace detail {

void sha1_compress_portable(std::array<std::uint32_t, 5>& h,
                            const std::uint8_t* block) {
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
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
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
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if defined(__x86_64__)
namespace {

// Rounds 4g .. 4g + 3 for g = G, then, while rounds remain, the schedule
// words and the E operand of the next four. The lanes of `abcd` hold a..d
// from high to low; w[g % 4] holds schedule words 4g .. 4g + 3, the
// earliest in the high lane, and each new group's words are computed from
// the four before them, so four registers roll through all twenty.
template <int G>
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
sha_ni_rounds(__m128i& abcd, __m128i& e, __m128i (&w)[4]) {
  const __m128i before = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
  if constexpr (G < 19) {
    constexpr int g = G + 1;
    if constexpr (g >= 4)
      w[g % 4] = _mm_sha1msg2_epu32(
          _mm_xor_si128(_mm_sha1msg1_epu32(w[g % 4], w[(g + 1) % 4]),
                        w[(g + 2) % 4]),
          w[(g + 3) % 4]);
    e = _mm_sha1nexte_epu32(before, w[g % 4]);
    sha_ni_rounds<G + 1>(abcd, e, w);
  } else {
    e = before;  // the caller derives the final e from it
  }
}

}  // namespace

__attribute__((target("sha,sse4.1,ssse3"))) void sha1_compress_sha_ni(
    std::array<std::uint32_t, 5>& h, const std::uint8_t* block) {
  // Reverses all 16 bytes: big-endian words, the first in the high lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  const __m128i abcd0 = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h.data())), 0x1B);
  const __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  __m128i w[4];
  for (int i = 0; i < 4; ++i)
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        byte_swap);
  __m128i abcd = abcd0;
  __m128i e = _mm_add_epi32(e0, w[0]);
  sha_ni_rounds<0>(abcd, e, w);
  e = _mm_sha1nexte_epu32(e, e0);
  abcd = _mm_add_epi32(abcd, abcd0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}
#endif

}  // namespace detail

}  // namespace qkd::crypto
