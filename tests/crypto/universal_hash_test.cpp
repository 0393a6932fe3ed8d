#include "src/crypto/universal_hash.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::crypto {
namespace {

TEST(ToeplitzHash, IsLinearInTheMessage) {
  // H(m1 ^ m2) == H(m1) ^ H(m2) — the defining property used by the
  // Toeplitz + one-time-pad construction.
  QKD_SEEDED_RNG(rng, 1);
  const unsigned tag_bits = 64;
  const std::size_t msg_bits = 256;
  const auto key = rng.next_bits(tag_bits + msg_bits - 1);
  const auto m1 = rng.next_bits(msg_bits);
  const auto m2 = rng.next_bits(msg_bits);
  const auto h1 = toeplitz_hash(key, m1, tag_bits);
  const auto h2 = toeplitz_hash(key, m2, tag_bits);
  const auto h12 = toeplitz_hash(key, m1 ^ m2, tag_bits);
  EXPECT_EQ(h12, h1 ^ h2);
}

TEST(ToeplitzHash, ZeroMessageHashesToZero) {
  QKD_SEEDED_RNG(rng, 2);
  const auto key = rng.next_bits(64 + 128 - 1);
  EXPECT_EQ(toeplitz_hash(key, qkd::BitVector(128), 64).popcount(), 0u);
}

TEST(ToeplitzHash, KeyTooShortThrows) {
  QKD_SEEDED_RNG(rng, 3);
  EXPECT_THROW(toeplitz_hash(rng.next_bits(100), rng.next_bits(100), 64),
               std::invalid_argument);
}

TEST(ToeplitzHash, CollisionRateNearTwoToMinusTag) {
  // For random keys, Pr[H(m1) == H(m2)] for fixed m1 != m2 is 2^-t.
  // With t = 8 and 2000 trials we expect ~8 collisions; accept generously.
  QKD_SEEDED_RNG(rng, 4);
  const unsigned tag_bits = 8;
  const std::size_t msg_bits = 64;
  const auto m1 = rng.next_bits(msg_bits);
  auto m2 = m1;
  m2.flip(10);
  int collisions = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto key = rng.next_bits(tag_bits + msg_bits - 1);
    collisions +=
        toeplitz_hash(key, m1, tag_bits) == toeplitz_hash(key, m2, tag_bits);
  }
  EXPECT_LT(collisions, 25);  // mean ~7.8, generous ceiling
}

/// The Toeplitz hash by its definition, one bit at a time:
/// tag_i = XOR over j of m_j * k_{i+j}.
qkd::BitVector toeplitz_by_definition(const qkd::BitVector& key,
                                      const qkd::BitVector& message,
                                      unsigned tag_bits) {
  qkd::BitVector tag(tag_bits);
  for (unsigned i = 0; i < tag_bits; ++i) {
    bool acc = false;
    for (std::size_t j = 0; j < message.size(); ++j)
      acc ^= message.get(j) && key.get(i + j);
    tag.set(i, acc);
  }
  return tag;
}

TEST(ToeplitzHash, MatchesTheBitwiseDefinition) {
  // Message lengths on both sides of the 64-bit word edge plus a sift
  // announce's worth; tag widths on both sides of 32 and 64; keys of
  // exactly tag_bits + msg_bits - 1 bits and longer ones whose extra bits
  // must not leak into the tag.
  QKD_SEEDED_RNG(rng, 6);
  for (std::size_t msg_bits : {1u, 63u, 64u, 65u, 45603u}) {
    for (unsigned tag_bits : {1u, 31u, 32u, 33u, 63u, 64u, 65u, 100u}) {
      for (std::size_t extra : {0u, 1u, 70u}) {
        SCOPED_TRACE("msg_bits=" + std::to_string(msg_bits) +
                     " tag_bits=" + std::to_string(tag_bits) +
                     " extra=" + std::to_string(extra));
        const auto key = rng.next_bits(tag_bits + msg_bits - 1 + extra);
        const auto message = rng.next_bits(msg_bits);
        EXPECT_EQ(toeplitz_hash(key, message, tag_bits),
                  toeplitz_by_definition(key, message, tag_bits));
      }
    }
  }
}

TEST(PolyHash64, DeterministicAndKeySensitive) {
  const Bytes msg = {1, 2, 3, 4, 5};
  EXPECT_EQ(poly_hash64(42, msg), poly_hash64(42, msg));
  EXPECT_NE(poly_hash64(42, msg), poly_hash64(43, msg));
}

TEST(PolyHash64, LengthIsAuthenticated) {
  const Bytes a = {1, 2, 3, 0};
  const Bytes b = {1, 2, 3};
  EXPECT_NE(poly_hash64(7, a), poly_hash64(7, b));
}

TEST(WegmanCarter, TagVerifyRoundTrip) {
  QKD_SEEDED_RNG(rng, 5);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  const auto secret = rng.next_bits(64 + 1024 - 1 + 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  const Bytes msg = {'s', 'i', 'f', 't'};
  const auto tag = alice.tag(msg);
  ASSERT_TRUE(tag.has_value());
  EXPECT_TRUE(bob.verify(msg, *tag));
}

TEST(WegmanCarter, TamperedMessageRejected) {
  QKD_SEEDED_RNG(rng, 6);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  const auto secret = rng.next_bits(64 + 1024 - 1 + 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  Bytes msg = {'s', 'i', 'f', 't'};
  const auto tag = alice.tag(msg);
  ASSERT_TRUE(tag.has_value());
  msg[0] ^= 1;
  EXPECT_FALSE(bob.verify(msg, *tag));
}

TEST(WegmanCarter, PadExhaustionReturnsNullopt) {
  QKD_SEEDED_RNG(rng, 7);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  // Exactly enough for the Toeplitz key + 2 tags of pad.
  const auto secret = rng.next_bits((64 + 256 - 1) + 128);
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {1};
  EXPECT_TRUE(auth.tag(msg).has_value());
  EXPECT_TRUE(auth.tag(msg).has_value());
  EXPECT_FALSE(auth.tag(msg).has_value());  // exhausted: the DoS of Sec. 2
  EXPECT_EQ(auth.pad_bits_consumed(), 128u);
}

TEST(WegmanCarter, ReplenishRestoresTagging) {
  QKD_SEEDED_RNG(rng, 8);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  const auto secret = rng.next_bits(64 + 256 - 1);  // zero pad bits
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {9};
  EXPECT_FALSE(auth.tag(msg).has_value());
  auth.replenish(rng.next_bits(64));
  EXPECT_TRUE(auth.tag(msg).has_value());
}

TEST(WegmanCarter, TagsOfSameMessageDifferAcrossPads) {
  // Fresh pad per message: identical messages must not produce identical
  // tags, or Eve learns hash collisions.
  QKD_SEEDED_RNG(rng, 9);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 256};
  const auto secret = rng.next_bits(64 + 256 - 1 + 1280);
  WegmanCarterAuthenticator auth(cfg, secret);
  const Bytes msg = {1, 2, 3};
  const auto t1 = auth.tag(msg);
  const auto t2 = auth.tag(msg);
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(*t1, *t2);
}

TEST(WegmanCarter, OversizeMessageThrows) {
  QKD_SEEDED_RNG(rng, 10);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 32,
                                        .max_message_bits = 64};
  const auto secret = rng.next_bits(32 + 64 - 1 + 320);
  WegmanCarterAuthenticator auth(cfg, secret);
  EXPECT_THROW(auth.tag(Bytes(9)), std::invalid_argument);
}

TEST(WegmanCarter, ShortInitialSecretThrows) {
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 64,
                                        .max_message_bits = 1024};
  EXPECT_THROW(WegmanCarterAuthenticator(cfg, qkd::BitVector(100)),
               std::invalid_argument);
}

TEST(WegmanCarter, ForgeryProbabilityIsLow) {
  // An attacker without the pad cannot guess a 16-bit tag much better than
  // 2^-16; try 5000 random forgeries and expect ~0 successes.
  QKD_SEEDED_RNG(rng, 11);
  WegmanCarterAuthenticator::Config cfg{.tag_bits = 16,
                                        .max_message_bits = 64};
  const Bytes msg = {0x42};
  int forged = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto secret = rng.next_bits(16 + 64 - 1 + 16);
    WegmanCarterAuthenticator verifier(cfg, secret);
    const auto guess = rng.next_bits(16);
    forged += verifier.verify(msg, guess);
  }
  EXPECT_LE(forged, 1);
}

}  // namespace
}  // namespace qkd::crypto
