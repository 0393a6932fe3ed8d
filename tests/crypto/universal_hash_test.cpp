#include "src/crypto/universal_hash.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"
#include "src/crypto/gf2n.hpp"

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

/// The hash keys a Config takes, followed by `pad_bits` of pad.
qkd::BitVector secret_for(qkd::Rng& rng, WegmanCarterAuthenticator::Config cfg,
                          std::size_t pad_bits) {
  return rng.next_bits(WegmanCarterAuthenticator::key_bits(cfg) + pad_bits);
}

TEST(WegmanCarter, TagVerifyRoundTrip) {
  QKD_SEEDED_RNG(rng, 5);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  const auto secret = secret_for(rng, cfg, 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  const Bytes msg = {'s', 'i', 'f', 't'};
  ASSERT_TRUE(alice.reserve(0));
  const auto tag = alice.tag_at(msg, 0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(bob.tag_at(msg, 0), tag);
}

TEST(WegmanCarter, TamperedMessageRejected) {
  QKD_SEEDED_RNG(rng, 6);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  const auto secret = secret_for(rng, cfg, 640);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  Bytes msg = {'s', 'i', 'f', 't'};
  const auto tag = alice.tag_at(msg, 0);
  ASSERT_TRUE(tag.has_value());
  msg[0] ^= 1;
  EXPECT_NE(bob.tag_at(msg, 0), tag);
}

TEST(WegmanCarter, PadExhaustionReturnsNullopt) {
  QKD_SEEDED_RNG(rng, 7);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  // Exactly enough for the hash keys + 2 tags of pad.
  WegmanCarterAuthenticator auth(cfg, secret_for(rng, cfg, 128));
  const Bytes msg = {1};
  EXPECT_TRUE(auth.reserve(0));
  EXPECT_TRUE(auth.reserve(1));
  EXPECT_FALSE(auth.reserve(2));  // exhausted: the DoS of Sec. 2
  EXPECT_FALSE(auth.tag_at(msg, 2).has_value());
  EXPECT_EQ(auth.pad_bits_consumed(), 128u);
}

TEST(WegmanCarter, ReplenishRestoresTagging) {
  QKD_SEEDED_RNG(rng, 8);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  WegmanCarterAuthenticator auth(cfg, secret_for(rng, cfg, 0));
  const Bytes msg = {9};
  EXPECT_FALSE(auth.tag_at(msg, 0).has_value());
  auth.replenish(rng.next_bits(64));
  EXPECT_TRUE(auth.reserve(0));
  EXPECT_TRUE(auth.tag_at(msg, 0).has_value());
}

TEST(WegmanCarter, TagsOfSameMessageDifferAcrossPads) {
  // Fresh pad per message: identical messages must not produce identical
  // tags, or Eve learns hash collisions.
  QKD_SEEDED_RNG(rng, 9);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  WegmanCarterAuthenticator auth(cfg, secret_for(rng, cfg, 1280));
  const Bytes msg = {1, 2, 3};
  const auto t1 = auth.tag_at(msg, 0);
  const auto t2 = auth.tag_at(msg, 1);
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(*t1, *t2);
}

TEST(WegmanCarter, LongMessagesNeedNoLongerKey) {
  // The polynomial hash takes a message of any length under its 64-bit
  // key: a 2^17-bit message, which once needed a 2^17-bit Toeplitz key,
  // tags under the same ~160 key bits as a one-byte one, and the tag
  // still catches one flipped bit at its end.
  QKD_SEEDED_RNG(rng, 10);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 32};
  EXPECT_EQ(WegmanCarterAuthenticator::key_bits(cfg), 159u);
  const auto secret = secret_for(rng, cfg, 320);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  Bytes msg = rng.next_bits(1 << 17).to_bytes();
  const auto tag = alice.tag_at(msg, 0);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(bob.tag_at(msg, 0), tag);
  msg.back() ^= 0x80;
  EXPECT_NE(bob.tag_at(msg, 0), tag);
}

TEST(WegmanCarter, ShortInitialSecretThrows) {
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 64};
  EXPECT_THROW(WegmanCarterAuthenticator(cfg, qkd::BitVector(100)),
               std::invalid_argument);
  EXPECT_THROW(WegmanCarterAuthenticator({.tag_bits = 65}, qkd::BitVector(500)),
               std::invalid_argument);
}

TEST(WegmanCarter, ForgeryProbabilityIsLow) {
  // An attacker without the pad cannot guess a 16-bit tag much better than
  // 2^-16; try 200 random forgeries and expect ~0 successes.
  QKD_SEEDED_RNG(rng, 11);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 16};
  const Bytes msg = {0x42};
  int forged = 0;
  for (int trial = 0; trial < 200; ++trial) {
    WegmanCarterAuthenticator verifier(cfg, secret_for(rng, cfg, 16));
    const auto guess = rng.next_bits(16);
    forged += verifier.tag_at(msg, 0) == guess;
  }
  EXPECT_LE(forged, 1);
}

TEST(WegmanCarter, SlotsPairTagsByNumberAndSpendOnlyOnReserve) {
  // Slot s's pad is pool bits [s t, (s + 1) t): tag_at spends nothing,
  // reserve spends through the slot (the skipped slots too), and a slot
  // behind a reserved one is dropped for good.
  QKD_SEEDED_RNG(rng, 12);
  const WegmanCarterAuthenticator::Config cfg{.tag_bits = 32};
  const auto secret = secret_for(rng, cfg, 32 * 8);
  WegmanCarterAuthenticator alice(cfg, secret);
  WegmanCarterAuthenticator bob(cfg, secret);
  const Bytes msg = {7, 7};
  EXPECT_EQ(alice.tag_at(msg, 3), bob.tag_at(msg, 3));
  EXPECT_NE(alice.tag_at(msg, 3), alice.tag_at(msg, 4));
  EXPECT_EQ(alice.pad_bits_consumed(), 0u);
  EXPECT_FALSE(alice.holds(8));
  EXPECT_FALSE(alice.reserve(8));
  ASSERT_TRUE(alice.reserve(5));
  EXPECT_EQ(alice.pad_bits_consumed(), 6u * 32);
  EXPECT_EQ(alice.pad_bits_available(), 2u * 32);
  EXPECT_TRUE(alice.tag_at(msg, 5).has_value());
  EXPECT_TRUE(alice.reserve(5));  // already spent: spends nothing more
  EXPECT_EQ(alice.pad_bits_consumed(), 6u * 32);
  alice.replenish(rng.next_bits(32));
  EXPECT_TRUE(alice.holds(8));
  EXPECT_EQ(alice.pad_bits_available(), 3u * 32);
}

TEST(PolyHash64, MatchesTheFieldArithmeticDefinition) {
  // H(m) = m_1 k^t + ... + m_t k + len over GF(2^64), checked against the
  // BitVector field multiply on lengths at and beside the eight-block
  // group edges of the hardware kernel.
  QKD_SEEDED_RNG(rng, 13);
  const Gf2Field field(64);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 40u, 63u, 64u,
                        65u, 71u, 72u, 127u, 128u, 129u, 200u}) {
    const std::uint64_t key = rng.next_u64();
    Bytes message(n);
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.next_u32());
    const qkd::BitVector k = qkd::BitVector::from_uint64(key, 64);
    qkd::BitVector acc(64);
    for (std::size_t off = 0; off < n; off += 8) {
      std::uint64_t block = 0;
      for (std::size_t i = 0; i < 8 && off + i < n; ++i)
        block |= static_cast<std::uint64_t>(message[off + i]) << (8 * i);
      acc = field.multiply(acc, k);
      acc ^= qkd::BitVector::from_uint64(block, 64);
    }
    acc = field.multiply(acc, k);
    acc ^= qkd::BitVector::from_uint64(n, 64);
    EXPECT_EQ(poly_hash64(key, message), acc.to_uint64()) << "n=" << n;
  }
}

}  // namespace
}  // namespace qkd::crypto
