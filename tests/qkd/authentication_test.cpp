#include "src/qkd/authentication.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

struct Pair {
  AuthenticationService alice;
  AuthenticationService bob;
};

Pair make_pair(std::size_t extra_pad_bits = 8192,
               AuthenticationService::Config config = {}) {
  ::qkd::testing::SeededRng rng(42);  // trace-free: helper scope ends before asserts
  const auto secret = rng.next_bits(
      AuthenticationService::required_secret_bits(config) + extra_pad_bits);
  return Pair{AuthenticationService(config, secret, true),
              AuthenticationService(config, secret, false)};
}

/// Opens batch `frame_id` at both ends.
void open(Pair& p, std::uint64_t frame_id) {
  ASSERT_TRUE(p.alice.open_batch(frame_id));
  ASSERT_TRUE(p.bob.open_batch(frame_id));
}

TEST(Authentication, ProtectVerifyRoundTrip) {
  Pair p = make_pair();
  open(p, 0);
  const Bytes transcript = {'s', 'i', 'f', 't', '!'};
  const Bytes tag = p.alice.tag(transcript);
  EXPECT_EQ(tag.size(), 4u);  // the default 32-bit tag
  EXPECT_TRUE(p.bob.verify(transcript, tag));
  EXPECT_EQ(p.bob.stats().verified, 1u);
}

TEST(Authentication, BothDirectionsWork) {
  Pair p = make_pair();
  open(p, 0);
  const Bytes a2b = {1}, b2a = {2};
  EXPECT_TRUE(p.bob.verify(a2b, p.alice.tag(a2b)));
  EXPECT_TRUE(p.alice.verify(b2a, p.bob.tag(b2a)));
}

TEST(Authentication, TamperedPayloadRejected) {
  Pair p = make_pair();
  open(p, 0);
  Bytes transcript = {9, 9, 9};
  const Bytes tag = p.alice.tag(transcript);
  transcript[1] ^= 0x01;  // flip a transcript bit
  EXPECT_FALSE(p.bob.verify(transcript, tag));
  EXPECT_EQ(p.bob.stats().rejected, 1u);
}

TEST(Authentication, TamperedTagRejected) {
  Pair p = make_pair();
  open(p, 0);
  const Bytes transcript = {1, 2, 3};
  Bytes tag = p.alice.tag(transcript);
  tag.back() ^= 0x80;
  EXPECT_FALSE(p.bob.verify(transcript, tag));
}

TEST(Authentication, ReplayRejected) {
  // Each batch's tag uses its own pad: a tag from batch 0 does not verify
  // in batch 1, and batch 0 cannot be opened again.
  Pair p = make_pair();
  open(p, 0);
  const Bytes transcript = {5};
  const Bytes tag = p.alice.tag(transcript);
  ASSERT_TRUE(p.bob.verify(transcript, tag));
  open(p, 1);
  EXPECT_FALSE(p.bob.verify(transcript, tag));  // replayed into batch 1
  EXPECT_FALSE(p.bob.open_batch(0));
  EXPECT_FALSE(p.bob.open_batch(1));
}

TEST(Authentication, ReflectionRejected) {
  // A tag Alice made must not verify at Alice (direction separation).
  Pair p = make_pair();
  open(p, 0);
  const Bytes transcript = {7};
  EXPECT_FALSE(p.alice.verify(transcript, p.alice.tag(transcript)));
}

TEST(Authentication, TruncatedFrameRejected) {
  Pair p = make_pair();
  open(p, 0);
  const Bytes transcript = {1, 2, 3};
  Bytes tag = p.alice.tag(transcript);
  tag.pop_back();
  EXPECT_FALSE(p.bob.verify(transcript, tag));
  EXPECT_FALSE(p.bob.verify(transcript, Bytes{}));
}

TEST(Authentication, ExhaustionStallsThenReplenishmentRestores) {
  // 3 * 64 pad bits split across two directions: three 32-bit slots each,
  // so batches 0-2 open and batch 3 is refused.
  Pair p = make_pair(3 * 64);
  for (std::uint64_t f = 0; f < 3; ++f) open(p, f);
  EXPECT_FALSE(p.alice.open_batch(3));
  EXPECT_EQ(p.alice.stats().stalls, 1u);
  EXPECT_EQ(p.alice.pad_bits_owed(), 3u * 64);

  // Replenish both sides with the same distilled bits; batches resume and
  // the pads pair correctly across the direction split.
  QKD_SEEDED_RNG(rng, 7);
  const auto fresh = rng.next_bits(64);
  p.alice.replenish(fresh);
  p.bob.replenish(fresh);
  EXPECT_EQ(p.alice.pad_bits_owed(), 2u * 64);
  open(p, 3);
  const Bytes transcript = {1};
  EXPECT_TRUE(p.bob.verify(transcript, p.alice.tag(transcript)));
  EXPECT_TRUE(p.alice.verify(transcript, p.bob.tag(transcript)));
}

TEST(Authentication, NeedsReplenishmentSignal) {
  AuthenticationService::Config config;
  config.low_water_bits = 1 << 20;  // absurdly high: always below water
  Pair p = make_pair(8192, config);
  EXPECT_TRUE(p.alice.needs_replenishment());
}

TEST(Authentication, PadAccountingAddsUp) {
  // Opening a batch spends its slot in both directions, and a slot
  // skipped on the way is spent with it.
  Pair p = make_pair();
  const std::size_t before = p.alice.pad_bits_available();
  ASSERT_TRUE(p.alice.open_batch(0));
  EXPECT_EQ(p.alice.pad_bits_available(), before - 64);
  EXPECT_EQ(p.alice.pad_bits_consumed(), 64u);
  ASSERT_TRUE(p.alice.open_batch(2));
  EXPECT_EQ(p.alice.pad_bits_consumed(), 3u * 64);
  EXPECT_EQ(p.alice.pad_bits_available() + p.alice.pad_bits_owed(), before);
}

TEST(Authentication, RejectsTinySecret) {
  AuthenticationService::Config config;
  QKD_SEEDED_RNG(rng, 1);
  EXPECT_THROW(
      AuthenticationService(config, rng.next_bits(100), true),
      std::invalid_argument);
}

TEST(Authentication, SequencedStreamSurvivesManyMessages) {
  // 100 batches, each tagged both ways and repaid from the key, on a
  // runway of only 4 batches.
  Pair p = make_pair(4 * 64);
  QKD_SEEDED_RNG(rng, 3);
  for (std::uint64_t f = 0; f < 100; ++f) {
    open(p, f);
    const Bytes transcript(static_cast<std::size_t>(f % 37 + 1),
                           static_cast<std::uint8_t>(f));
    ASSERT_TRUE(p.bob.verify(transcript, p.alice.tag(transcript))) << f;
    ASSERT_TRUE(p.alice.verify(transcript, p.bob.tag(transcript))) << f;
    ASSERT_EQ(p.alice.pad_bits_owed(), 64u);
    const auto key = rng.next_bits(64);
    p.alice.replenish(key);
    p.bob.replenish(key);
  }
  EXPECT_EQ(p.bob.stats().verified, 100u);
  EXPECT_EQ(p.bob.stats().rejected, 0u);
  EXPECT_EQ(p.alice.pad_bits_available(), 4u * 64);
}

}  // namespace
}  // namespace qkd::proto
