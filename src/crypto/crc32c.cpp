#include "src/crypto/crc32c.hpp"

#include <array>
#include <cstring>

#include "src/crypto/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qkd::crypto {
namespace detail {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// Table k maps a byte to its CRC after k further zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = crc;
    for (int i = 0; i < 8; ++i)
      word ^= static_cast<std::uint64_t>(p[i]) << (8 * i);
    crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
          kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
          kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
          kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
  return ~crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data) {
  std::uint64_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
#if defined(__x86_64__)
  if (detail::cpu_has_sse42()) return detail::crc32c_sse42(data);
#endif
  return detail::crc32c_portable(data);
}

}  // namespace qkd::crypto
