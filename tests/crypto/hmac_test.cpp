#include "src/crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <string_view>

namespace qkd::crypto {
namespace {

Bytes ascii(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string mac_hex(const Sha1::Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// RFC 2202 test vectors for HMAC-SHA1.
TEST(HmacSha1, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(mac_hex(hmac_sha1(key, ascii("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(
      mac_hex(hmac_sha1(ascii("Jefe"), ascii("what do ya want for nothing?"))),
      "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(mac_hex(hmac_sha1(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, Rfc2202Case6LongKey) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(mac_hex(hmac_sha1(
                key, ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1Key, Rfc2202VectorsUnderOneKeyingEach) {
  // Cases 1, 2, 3 and 6, each key MACing its message twice: the keyed
  // states must not carry one message into the next.
  const struct {
    Bytes key;
    Bytes data;
    const char* mac;
  } cases[] = {
      {Bytes(20, 0x0b), ascii("Hi There"),
       "b617318655057264e28bc0b6fb378c8ef146be00"},
      {ascii("Jefe"), ascii("what do ya want for nothing?"),
       "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
      {Bytes(80, 0xaa),
       ascii("Test Using Larger Than Block-Size Key - Hash Key First"),
       "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
  };
  for (const auto& c : cases) {
    const HmacSha1Key key(c.key);
    EXPECT_EQ(mac_hex(key.mac(c.data)), c.mac);
    EXPECT_EQ(mac_hex(key.mac(c.data)), c.mac);
  }
}

TEST(HmacSha1, KeySensitivity) {
  const Bytes k1(20, 0x01), k2(20, 0x02);
  const Bytes msg = ascii("same message");
  EXPECT_NE(hmac_sha1(k1, msg), hmac_sha1(k2, msg));
}

TEST(PrfPlus, ProducesRequestedLength) {
  const Bytes key = ascii("secret");
  const Bytes seed = ascii("seed");
  for (std::size_t len : {0u, 1u, 19u, 20u, 21u, 64u, 100u}) {
    EXPECT_EQ(prf_plus(key, seed, len).size(), len);
  }
}

TEST(PrfPlus, PrefixConsistency) {
  // prf_plus(k, s, 40) must begin with prf_plus(k, s, 20).
  const Bytes key = ascii("k");
  const Bytes seed = ascii("s");
  const Bytes a = prf_plus(key, seed, 20);
  const Bytes b = prf_plus(key, seed, 40);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(PrfPlus, SeedSensitivity) {
  const Bytes key = ascii("k");
  EXPECT_NE(prf_plus(key, ascii("s1"), 20), prf_plus(key, ascii("s2"), 20));
}

TEST(ConstantTimeEqual, Basics) {
  const Bytes a = {1, 2, 3}, b = {1, 2, 3}, c = {1, 2, 4}, d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

}  // namespace
}  // namespace qkd::crypto
