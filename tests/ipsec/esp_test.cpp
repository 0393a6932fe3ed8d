#include "src/ipsec/esp.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::ipsec {
namespace {

IpPacket sample_packet(std::size_t payload_len = 100) {
  IpPacket packet;
  packet.src = parse_ipv4("10.1.1.5");
  packet.dst = parse_ipv4("10.2.2.9");
  packet.payload.assign(payload_len, 0x5a);
  return packet;
}

SecurityAssociation make_sa(CipherAlgo cipher, std::uint64_t seed = 7) {
  ::qkd::testing::SeededRng rng(seed);  // trace-free: helper scope ends before asserts
  SecurityAssociation sa;
  sa.spi = 0xabcd0001;
  sa.cipher = cipher;
  sa.encryption_key.resize(cipher_key_bytes(cipher));
  for (auto& b : sa.encryption_key) b = static_cast<std::uint8_t>(rng.next_u64());
  sa.authentication_key.resize(20);
  for (auto& b : sa.authentication_key)
    b = static_cast<std::uint8_t>(rng.next_u64());
  if (cipher == CipherAlgo::kOneTimePad) sa.otp_pool = rng.next_bits(1 << 16);
  return sa;
}

/// A mirrored receive-side SA (same keys, fresh counters).
SecurityAssociation mirror(const SecurityAssociation& sa) {
  SecurityAssociation rx = sa;
  rx.send_seq = 0;
  rx.replay_highest = 0;
  rx.replay_window = 0;
  rx.otp_cursor = 0;
  return rx;
}

std::string cipher_test_name(
    const ::testing::TestParamInfo<CipherAlgo>& info) {
  switch (info.param) {
    case CipherAlgo::kAes128:
      return "Aes128";
    case CipherAlgo::kAes256:
      return "Aes256";
    case CipherAlgo::kTripleDes:
      return "TripleDes";
    case CipherAlgo::kOneTimePad:
      return "Otp";
  }
  return "Unknown";
}

class EspCipherSweep : public ::testing::TestWithParam<CipherAlgo> {};

TEST_P(EspCipherSweep, EncapDecapRoundTrip) {
  SecurityAssociation tx = make_sa(GetParam());
  SecurityAssociation rx = mirror(tx);
  const IpPacket inner = sample_packet();
  const auto wire = esp_encapsulate(tx, inner, 42);
  ASSERT_TRUE(wire.has_value());
  const EspResult result = esp_decapsulate(rx, *wire);
  ASSERT_TRUE(result.ok()) << static_cast<int>(*result.error);
  EXPECT_EQ(*result.packet, inner);
}

TEST_P(EspCipherSweep, VariousPayloadSizes) {
  SecurityAssociation tx = make_sa(GetParam());
  SecurityAssociation rx = mirror(tx);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 1499u}) {
    const IpPacket inner = sample_packet(len);
    const auto wire = esp_encapsulate(tx, inner, len);
    ASSERT_TRUE(wire.has_value()) << len;
    const EspResult result = esp_decapsulate(rx, *wire);
    ASSERT_TRUE(result.ok()) << len;
    EXPECT_EQ(*result.packet, inner) << len;
  }
}

TEST_P(EspCipherSweep, CiphertextHidesPlaintext) {
  SecurityAssociation tx = make_sa(GetParam());
  IpPacket inner = sample_packet(64);
  const Bytes inner_wire = inner.serialize();
  const auto wire = esp_encapsulate(tx, inner, 9);
  ASSERT_TRUE(wire.has_value());
  // The inner bytes must not appear in the ESP payload.
  const auto it = std::search(wire->begin(), wire->end(), inner_wire.begin(),
                              inner_wire.end());
  EXPECT_EQ(it, wire->end());
}

INSTANTIATE_TEST_SUITE_P(Ciphers, EspCipherSweep,
                         ::testing::Values(CipherAlgo::kAes128,
                                           CipherAlgo::kAes256,
                                           CipherAlgo::kTripleDes,
                                           CipherAlgo::kOneTimePad),
                         cipher_test_name);

// An SA carries its key schedule; these hold that a changed or copied key
// never runs under a schedule built from other bytes.
class EspKeySchedule : public ::testing::TestWithParam<CipherAlgo> {};

TEST_P(EspKeySchedule, ChangedKeysSealAndOpenUnderTheNewKeysOnly) {
  SecurityAssociation tx = make_sa(GetParam(), 7);
  SecurityAssociation old_rx = mirror(tx);
  const IpPacket inner = sample_packet();
  const auto first = esp_encapsulate(tx, inner, 1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(esp_decapsulate(old_rx, *first).ok());

  // Rekey the sender in place, after its schedule was built.
  const SecurityAssociation fresh = make_sa(GetParam(), 8);
  tx.encryption_key = fresh.encryption_key;
  tx.authentication_key = fresh.authentication_key;
  const auto second = esp_encapsulate(tx, inner, 2);
  ASSERT_TRUE(second.has_value());

  SecurityAssociation new_rx = mirror(fresh);
  const EspResult opened = esp_decapsulate(new_rx, *second);
  ASSERT_TRUE(opened.ok()) << static_cast<int>(*opened.error);
  EXPECT_EQ(*opened.packet, inner);
  SecurityAssociation stale_rx = old_rx;
  const EspResult refused = esp_decapsulate(stale_rx, *second);
  EXPECT_FALSE(refused.ok());

  // Rekey the receiver in place too: it now opens the second packet.
  old_rx.encryption_key = fresh.encryption_key;
  old_rx.authentication_key = fresh.authentication_key;
  const EspResult reopened = esp_decapsulate(old_rx, *second);
  ASSERT_TRUE(reopened.ok()) << static_cast<int>(*reopened.error);
  EXPECT_EQ(*reopened.packet, inner);
}

TEST_P(EspKeySchedule, ChangingOnlyTheCipherKeyTakesEffect) {
  // The ICV still verifies under the old authentication key, so only the
  // cipher's schedule decides whether the payload comes back.
  SecurityAssociation tx = make_sa(GetParam(), 7);
  SecurityAssociation rx = mirror(tx);
  const IpPacket inner = sample_packet();
  ASSERT_TRUE(esp_decapsulate(rx, *esp_encapsulate(tx, inner, 1)).ok());
  const Bytes new_key = make_sa(GetParam(), 8).encryption_key;
  tx.encryption_key = new_key;
  const auto wire = esp_encapsulate(tx, inner, 2);
  ASSERT_TRUE(wire.has_value());
  SecurityAssociation stale_rx = rx;
  const EspResult garbled = esp_decapsulate(stale_rx, *wire);
  EXPECT_FALSE(garbled.ok() && *garbled.packet == inner);
  rx.encryption_key = new_key;
  const EspResult opened = esp_decapsulate(rx, *wire);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened.packet, inner);
}

TEST_P(EspKeySchedule, ChangingOnlyTheAuthenticationKeyTakesEffect) {
  SecurityAssociation tx = make_sa(GetParam(), 7);
  SecurityAssociation rx = mirror(tx);
  const IpPacket inner = sample_packet();
  ASSERT_TRUE(esp_decapsulate(rx, *esp_encapsulate(tx, inner, 1)).ok());
  const Bytes new_key = make_sa(GetParam(), 8).authentication_key;
  tx.authentication_key = new_key;
  const auto wire = esp_encapsulate(tx, inner, 2);
  ASSERT_TRUE(wire.has_value());
  SecurityAssociation stale_rx = rx;
  const EspResult refused = esp_decapsulate(stale_rx, *wire);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(*refused.error, EspError::kBadIntegrity);
  rx.authentication_key = new_key;
  const EspResult opened = esp_decapsulate(rx, *wire);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened.packet, inner);
}

TEST_P(EspKeySchedule, FreshSaUnderTheSameSpiReplacesTheOld) {
  // A rekey installs a new SA under the SPI; the SAD's copy must seal with
  // the new keys.
  SecurityAssociationDatabase sad;
  sad.install(make_sa(GetParam(), 7));
  const IpPacket inner = sample_packet();
  ASSERT_TRUE(esp_encapsulate(*sad.find(0xabcd0001), inner, 1).has_value());
  const SecurityAssociation fresh = make_sa(GetParam(), 8);
  sad.install(fresh);
  const auto wire = esp_encapsulate(*sad.find(0xabcd0001), inner, 2);
  ASSERT_TRUE(wire.has_value());
  SecurityAssociation rx = mirror(fresh);
  const EspResult opened = esp_decapsulate(rx, *wire);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened.packet, inner);
  SecurityAssociation old_rx = mirror(make_sa(GetParam(), 7));
  EXPECT_FALSE(esp_decapsulate(old_rx, *wire).ok());
}

TEST_P(EspKeySchedule, CopiedSaOpensWhatTheOriginalSealed) {
  SecurityAssociation tx = make_sa(GetParam(), 7);
  const IpPacket inner = sample_packet();
  ASSERT_TRUE(esp_encapsulate(tx, inner, 1).has_value());  // builds it
  SecurityAssociation rx = mirror(tx);  // shares the built schedule
  const auto wire = esp_encapsulate(tx, inner, 2);
  ASSERT_TRUE(wire.has_value());
  const EspResult opened = esp_decapsulate(rx, *wire);
  ASSERT_TRUE(opened.ok()) << static_cast<int>(*opened.error);
  EXPECT_EQ(*opened.packet, inner);

  // Rekeying a copy leaves the original on its own keys.
  SecurityAssociation copy = tx;
  const SecurityAssociation fresh = make_sa(GetParam(), 8);
  copy.encryption_key = fresh.encryption_key;
  copy.authentication_key = fresh.authentication_key;
  ASSERT_TRUE(esp_encapsulate(copy, inner, 3).has_value());
  const auto again = esp_encapsulate(tx, inner, 4);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(esp_decapsulate(rx, *again).ok());
}

INSTANTIATE_TEST_SUITE_P(Ciphers, EspKeySchedule,
                         ::testing::Values(CipherAlgo::kAes128,
                                           CipherAlgo::kAes256,
                                           CipherAlgo::kTripleDes),
                         cipher_test_name);

TEST(Esp, TamperedPacketFailsIntegrity) {
  SecurityAssociation tx = make_sa(CipherAlgo::kAes128);
  SecurityAssociation rx = mirror(tx);
  auto wire = esp_encapsulate(tx, sample_packet(), 1);
  ASSERT_TRUE(wire.has_value());
  (*wire)[wire->size() / 2] ^= 0x40;
  const EspResult result = esp_decapsulate(rx, *wire);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(*result.error, EspError::kBadIntegrity);
}

TEST(Esp, WrongKeyFailsIntegrity) {
  // The Section 7 mismatched-bits symptom: keys derived from different
  // Qblocks fail authentication on every packet.
  SecurityAssociation tx = make_sa(CipherAlgo::kAes128, 7);
  SecurityAssociation rx = make_sa(CipherAlgo::kAes128, 8);  // different keys
  const auto wire = esp_encapsulate(tx, sample_packet(), 1);
  ASSERT_TRUE(wire.has_value());
  const EspResult result = esp_decapsulate(rx, *wire);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(*result.error, EspError::kBadIntegrity);
}

TEST(Esp, ReplayedPacketRejected) {
  SecurityAssociation tx = make_sa(CipherAlgo::kAes128);
  SecurityAssociation rx = mirror(tx);
  const auto wire = esp_encapsulate(tx, sample_packet(), 1);
  ASSERT_TRUE(wire.has_value());
  EXPECT_TRUE(esp_decapsulate(rx, *wire).ok());
  const EspResult replay = esp_decapsulate(rx, *wire);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(*replay.error, EspError::kReplay);
}

TEST(Esp, SequenceNumbersIncrease) {
  SecurityAssociation tx = make_sa(CipherAlgo::kAes128);
  SecurityAssociation rx = mirror(tx);
  for (int i = 0; i < 5; ++i) {
    const auto wire = esp_encapsulate(tx, sample_packet(), i);
    ASSERT_TRUE(wire.has_value());
    EXPECT_TRUE(esp_decapsulate(rx, *wire).ok()) << i;
  }
  EXPECT_EQ(tx.send_seq, 5u);
  EXPECT_EQ(rx.replay_highest, 5u);
}

TEST(Esp, OtpConsumesPadProportionally) {
  SecurityAssociation tx = make_sa(CipherAlgo::kOneTimePad);
  const std::size_t before = tx.otp_bits_available();
  const IpPacket inner = sample_packet(100);
  const auto wire = esp_encapsulate(tx, inner, 1);
  ASSERT_TRUE(wire.has_value());
  // Pad consumed = padded inner packet size (bits).
  const std::size_t consumed = before - tx.otp_bits_available();
  EXPECT_GE(consumed, (inner.total_length() + 2) * 8);
  EXPECT_LT(consumed, (inner.total_length() + 10) * 8);
}

TEST(Esp, OtpExhaustionRefusesToSend) {
  SecurityAssociation tx = make_sa(CipherAlgo::kOneTimePad);
  tx.otp_pool = qkd::BitVector(100);  // hopelessly small pad
  const auto wire = esp_encapsulate(tx, sample_packet(), 1);
  EXPECT_FALSE(wire.has_value());
}

TEST(Esp, OtpPadNeverReused) {
  // Two packets must draw disjoint pad ranges (cursor strictly advances).
  SecurityAssociation tx = make_sa(CipherAlgo::kOneTimePad);
  const std::size_t c0 = tx.otp_cursor;
  ASSERT_TRUE(esp_encapsulate(tx, sample_packet(50), 1).has_value());
  const std::size_t c1 = tx.otp_cursor;
  ASSERT_TRUE(esp_encapsulate(tx, sample_packet(50), 2).has_value());
  const std::size_t c2 = tx.otp_cursor;
  EXPECT_GT(c1, c0);
  EXPECT_GT(c2, c1);
}

TEST(Esp, MalformedWireRejected) {
  SecurityAssociation rx = make_sa(CipherAlgo::kAes128);
  const EspResult result = esp_decapsulate(rx, Bytes(10));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(*result.error, EspError::kMalformed);
}

TEST(Esp, ByteCountersDriveLifetime) {
  SecurityAssociation tx = make_sa(CipherAlgo::kAes128);
  tx.lifetime_seconds = 0.0;
  tx.lifetime_bytes = 500;
  ASSERT_TRUE(esp_encapsulate(tx, sample_packet(100), 1).has_value());
  EXPECT_FALSE(tx.expired(0));
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(esp_encapsulate(tx, sample_packet(100), i).has_value());
  EXPECT_TRUE(tx.expired(0));  // > 500 bytes protected
}

}  // namespace
}  // namespace qkd::ipsec
