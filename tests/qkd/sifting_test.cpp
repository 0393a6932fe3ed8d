#include "src/qkd/sifting.hpp"

#include <gtest/gtest.h>

#include "src/optics/link.hpp"
#include "src/wire/packets.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::proto {
namespace {

qkd::optics::FrameResult small_frame(std::uint64_t seed,
                                     std::size_t slots = 200000) {
  qkd::optics::WeakCoherentLink link(qkd::optics::LinkParams{}, seed);
  return link.run_frame(slots);
}

TEST(Sifting, MessageSerializationRoundTrips) {
  const auto frame = small_frame(1);
  const wire::SiftAnnounce announce = make_sift_announce(42, frame.bob);
  const auto back = wire::SiftAnnounce::decode(announce.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value.frame_id, 42u);
  EXPECT_EQ(back.value.slots, frame.bob.size());
  EXPECT_EQ(back.value.clicks, announce.clicks);
  EXPECT_EQ(back.value.bob_bases, announce.bob_bases);
}

TEST(Sifting, ResponseSerializationRoundTrips) {
  wire::SiftDecision decision;
  decision.frame_id = 7;
  decision.keep = qkd::BitVector::from_string("1011001");
  const auto back = wire::SiftDecision::decode(decision.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value.frame_id, 7u);
  EXPECT_EQ(back.value.keep, decision.keep);
}

TEST(Sifting, DeserializeRejectsGarbage) {
  EXPECT_FALSE(wire::SiftAnnounce::decode(Bytes{1, 2, 3}).ok());
  EXPECT_FALSE(wire::SiftDecision::decode(Bytes{}).ok());
}

TEST(Sifting, BothSidesAgreeOnSlotIndices) {
  const auto frame = small_frame(2);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, announce);
  const SiftOutcome bob =
      bob_apply_response(frame.bob, announce, alice.decision);
  EXPECT_EQ(alice.outcome.slot_indices, bob.slot_indices);
  EXPECT_EQ(alice.outcome.bits.size(), bob.bits.size());
}

TEST(Sifting, KeepsOnlyMatchingBasisDetections) {
  const auto frame = small_frame(3);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, announce);
  for (std::uint32_t slot : alice.outcome.slot_indices) {
    EXPECT_TRUE(frame.bob.detected.get(slot));
    EXPECT_EQ(frame.alice.bases.get(slot), frame.bob.bases.get(slot));
  }
}

TEST(Sifting, SiftedFractionIsHalfOfDetections) {
  const auto frame = small_frame(4, 500000);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, announce);
  const double detections =
      static_cast<double>(frame.bob.detected.popcount());
  ASSERT_GT(detections, 100);
  EXPECT_NEAR(static_cast<double>(alice.outcome.bits.size()) / detections,
              0.5, 0.08);
}

TEST(Sifting, SiftedBitsMostlyAgree) {
  // At the paper's operating point the sifted strings differ only by the
  // 6-8 % QBER.
  const auto frame = small_frame(5, 500000);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, announce);
  const SiftOutcome bob =
      bob_apply_response(frame.bob, announce, alice.decision);
  ASSERT_GT(alice.outcome.bits.size(), 100u);
  const double qber =
      static_cast<double>(alice.outcome.bits.hamming_distance(bob.bits)) /
      static_cast<double>(alice.outcome.bits.size());
  EXPECT_GT(qber, 0.02);
  EXPECT_LT(qber, 0.12);
}

TEST(Sifting, AliceRejectsWrongFrameSize) {
  const auto frame = small_frame(6, 10000);
  wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  announce.slots = 5000;
  EXPECT_THROW(alice_sift(frame.alice, announce), std::invalid_argument);
  announce.slots = frame.bob.size();
  announce.bob_bases.push_back(false);  // one basis more than clicks
  EXPECT_THROW(alice_sift(frame.alice, announce), std::invalid_argument);
}

TEST(Sifting, BobRejectsMismatchedResponse) {
  const auto frame = small_frame(7, 10000);
  const wire::SiftAnnounce announce = make_sift_announce(3, frame.bob);
  wire::SiftDecision bad;
  bad.frame_id = 3;
  bad.keep = qkd::BitVector(announce.clicks.size() + 1);
  EXPECT_THROW(bob_apply_response(frame.bob, announce, bad),
               std::invalid_argument);
  wire::SiftDecision wrong_frame;
  wrong_frame.frame_id = 4;
  wrong_frame.keep = qkd::BitVector(announce.clicks.size());
  EXPECT_THROW(bob_apply_response(frame.bob, announce, wrong_frame),
               std::invalid_argument);
}

TEST(Sifting, DeserializeRejectsInconsistentBasisCount) {
  const auto frame = small_frame(8, 10000);
  wire::SiftAnnounce announce = make_sift_announce(0, frame.bob);
  announce.bob_bases.push_back(true);  // one basis too many
  EXPECT_FALSE(wire::SiftAnnounce::decode(announce.encode()).ok());
}

// ---- Word-level sifting equals the bit-by-bit definition ------------------
//
// Sifting is a pure function of the frame, so the word-level implementation
// must reproduce, bit for bit, what a slot-by-slot walk computes. The walk
// below is that definition, kept here as the oracle.

namespace reference {

/// Bob's clicks in slot order and his basis for each.
struct Announce {
  std::vector<std::uint32_t> clicks;
  qkd::BitVector bob_bases;
};

Announce announce(const qkd::optics::DetectionRecord& bob) {
  Announce out;
  for (std::size_t slot = 0; slot < bob.size(); ++slot) {
    if (!bob.detected.get(slot)) continue;
    out.clicks.push_back(static_cast<std::uint32_t>(slot));
    out.bob_bases.push_back(bob.bases.get(slot));
  }
  return out;
}

/// Alice's keep bit per click and her sifted bits, walking every slot of
/// Bob's detection bitmap.
struct AliceSide {
  qkd::BitVector keep;
  SiftOutcome outcome;
};

AliceSide alice_sift(const qkd::optics::PulseTrainRecord& alice,
                     const qkd::BitVector& detected,
                     const qkd::BitVector& bob_bases) {
  AliceSide result;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < alice.size(); ++slot) {
    if (!detected.get(slot)) continue;
    const bool match = bob_bases.get(det_index) == alice.bases.get(slot);
    result.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(alice.values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const qkd::BitVector& keep) {
  SiftOutcome outcome;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < bob.size(); ++slot) {
    if (!bob.detected.get(slot)) continue;
    if (keep.get(det_index)) {
      outcome.bits.push_back(bob.bits.get(slot));
      outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return outcome;
}

void put_bits_dense(Bytes& out, const qkd::BitVector& bits) {
  put_varint(out, bits.size());
  for (std::size_t byte = 0; byte < (bits.size() + 7) / 8; ++byte) {
    std::uint8_t packed = 0;
    for (std::size_t b = 0; b < 8 && byte * 8 + b < bits.size(); ++b)
      if (bits.get(byte * 8 + b)) packed |= static_cast<std::uint8_t>(1u << b);
    out.push_back(packed);
  }
}

void put_bits_sparse(Bytes& out, const qkd::BitVector& bits) {
  put_varint(out, bits.size());
  put_varint(out, bits.popcount());
  std::uint64_t previous = 0;
  bool first = true;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (!bits.get(i)) continue;
    put_varint(out, first ? i : i - previous - 1);
    previous = i;
    first = false;
  }
}

/// The SiftAnnounce payload by its definition: the frame id, Bob's
/// detection bitmap walked slot by slot through the sparse gap codec, then
/// his basis for each click, packed LSB first.
Bytes encode_announce(std::uint64_t frame_id,
                      const qkd::optics::DetectionRecord& bob) {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_sparse(out, bob.detected);
  put_bits_dense(out, announce(bob).bob_bases);
  return out;
}

Bytes encode_decision(std::uint64_t frame_id, const qkd::BitVector& keep) {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_dense(out, keep);
  return out;
}

}  // namespace reference

/// A frame whose every slot is independently detected with `density`;
/// bases, values and Bob's bits are uniform (bits only on detected slots).
qkd::optics::FrameResult random_frame(qkd::Rng& rng, std::size_t slots,
                                      double density) {
  qkd::optics::FrameResult frame;
  frame.alice.bases = rng.next_bits(slots);
  frame.alice.values = rng.next_bits(slots);
  frame.bob.bases = rng.next_bits(slots);
  frame.bob.detected = qkd::BitVector(slots);
  frame.bob.bits = qkd::BitVector(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    if (!rng.next_bool(density)) continue;
    frame.bob.detected.set(i, true);
    frame.bob.bits.set(i, rng.next_bool());
  }
  return frame;
}

void expect_sift_matches_reference(const qkd::optics::FrameResult& frame,
                                   std::uint64_t frame_id) {
  const wire::SiftAnnounce announce = make_sift_announce(frame_id, frame.bob);
  const reference::Announce ref = reference::announce(frame.bob);
  EXPECT_EQ(announce.frame_id, frame_id);
  EXPECT_EQ(announce.slots, frame.bob.size());
  EXPECT_EQ(announce.clicks, ref.clicks);
  EXPECT_EQ(announce.bob_bases, ref.bob_bases);

  const AliceSiftResult alice = alice_sift(frame.alice, announce);
  const reference::AliceSide ref_alice =
      reference::alice_sift(frame.alice, frame.bob.detected, ref.bob_bases);
  EXPECT_EQ(alice.decision.frame_id, frame_id);
  EXPECT_EQ(alice.decision.keep, ref_alice.keep);
  EXPECT_EQ(alice.outcome.bits, ref_alice.outcome.bits);
  EXPECT_EQ(alice.outcome.slot_indices, ref_alice.outcome.slot_indices);

  const SiftOutcome bob =
      bob_apply_response(frame.bob, announce, alice.decision);
  const SiftOutcome ref_bob =
      reference::bob_apply_response(frame.bob, ref_alice.keep);
  EXPECT_EQ(bob.bits, ref_bob.bits);
  EXPECT_EQ(bob.slot_indices, ref_bob.slot_indices);

  // The wire bytes of both sifting packets, and their decodings.
  const Bytes announce_bytes = announce.encode();
  EXPECT_EQ(announce_bytes, reference::encode_announce(frame_id, frame.bob));
  const auto announce_back = wire::SiftAnnounce::decode(announce_bytes);
  ASSERT_TRUE(announce_back.ok());
  EXPECT_EQ(announce_back.value, announce);

  const Bytes decision_bytes = alice.decision.encode();
  EXPECT_EQ(decision_bytes,
            reference::encode_decision(frame_id, ref_alice.keep));
  const auto decision_back = wire::SiftDecision::decode(decision_bytes);
  ASSERT_TRUE(decision_back.ok());
  EXPECT_EQ(decision_back.value, alice.decision);
}

TEST(SiftingEquivalence, SeededRandomFramesMatchTheBitwiseWalk) {
  QKD_SEEDED_RNG(rng, 61);
  for (std::size_t slots : {1u, 63u, 64u, 65u, 127u, 1000u, 4097u, 65536u}) {
    for (double density : {0.003, 0.1, 0.5, 0.97}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " density=" + std::to_string(density));
      expect_sift_matches_reference(random_frame(rng, slots, density),
                                    rng.next_below(1u << 30));
    }
  }
}

TEST(SiftingEquivalence, EmptyAndFullFramesMatch) {
  QKD_SEEDED_RNG(rng, 67);
  for (std::size_t slots : {0u, 1u, 64u, 100u, 4096u, 4099u}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    expect_sift_matches_reference(random_frame(rng, slots, 0.0), 1);
    expect_sift_matches_reference(random_frame(rng, slots, 1.0), 2);
  }
}

TEST(SiftingEquivalence, FirstAndLastSlotDetectionsMatch) {
  QKD_SEEDED_RNG(rng, 71);
  for (std::size_t slots : {1u, 2u, 64u, 65u, 128u, 1000u, 65536u}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    qkd::optics::FrameResult frame = random_frame(rng, slots, 0.0);
    frame.bob.detected.set(0, true);
    frame.bob.detected.set(slots - 1, true);
    frame.bob.bits.set(slots - 1, true);
    // Force one kept and one dropped detection where the ends differ.
    frame.alice.bases.set(0, frame.bob.bases.get(0));
    if (slots > 1)
      frame.alice.bases.set(slots - 1, !frame.bob.bases.get(slots - 1));
    expect_sift_matches_reference(frame, 9);
  }
}

TEST(SiftingEquivalence, SimulatedQframeMatches) {
  expect_sift_matches_reference(small_frame(73, 1 << 20), 5);
}

// ---- Sift wire-byte pin ---------------------------------------------------
//
// The SiftAnnounce payload is fixed by its definition (see
// reference::encode_announce): whatever Bob's announce is built from, the
// bytes are those of his detection bitmap walked slot by slot.

void expect_pinned_announce(const qkd::optics::DetectionRecord& bob,
                            std::uint64_t frame_id) {
  const wire::SiftAnnounce announce = make_sift_announce(frame_id, bob);
  const Bytes bytes = announce.encode();
  EXPECT_EQ(bytes, reference::encode_announce(frame_id, bob));
  const auto back = wire::SiftAnnounce::decode(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value, announce);
}

TEST(SiftWirePin, SeededFramesAtFiveAndTwentyKm) {
  for (double km : {5.0, 20.0}) {
    SCOPED_TRACE("fiber_km=" + std::to_string(km));
    qkd::optics::LinkParams params;
    params.fiber_km = km;
    qkd::optics::WeakCoherentLink link(params, 79);
    for (std::uint64_t frame_id = 0; frame_id < 3; ++frame_id)
      expect_pinned_announce(link.run_frame(1 << 20).bob, frame_id);
  }
}

TEST(SiftWirePin, EmptyFrames) {
  QKD_SEEDED_RNG(rng, 83);
  for (std::size_t slots : {0u, 1u, 64u, 1000u, 1u << 20}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    expect_pinned_announce(random_frame(rng, slots, 0.0).bob, slots);
  }
}

TEST(SiftWirePin, ClicksInTheFirstAndLastSlot) {
  QKD_SEEDED_RNG(rng, 89);
  for (std::size_t slots : {1u, 2u, 64u, 65u, 4096u, 1u << 20}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    qkd::optics::FrameResult frame = random_frame(rng, slots, 0.003);
    frame.bob.detected.set(0, true);
    frame.bob.detected.set(slots - 1, true);
    frame.bob.bases.set(slots - 1, true);
    expect_pinned_announce(frame.bob, 1u << 31);
  }
}

TEST(SiftWirePin, FrameSizesOffTheWordGrid) {
  QKD_SEEDED_RNG(rng, 97);
  for (std::size_t slots : {3u, 63u, 65u, 127u, 129u, 1000003u}) {
    for (double density : {0.003, 0.3, 1.0}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " density=" + std::to_string(density));
      expect_pinned_announce(random_frame(rng, slots, density).bob, 7);
    }
  }
}

}  // namespace
}  // namespace qkd::proto
