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
  const SiftMessage msg = make_sift_message(42, frame.bob);
  const SiftMessage back = SiftMessage::deserialize(msg.serialize());
  EXPECT_EQ(back.frame_id, 42u);
  EXPECT_EQ(back.detected, msg.detected);
  EXPECT_EQ(back.bob_bases, msg.bob_bases);
}

TEST(Sifting, ResponseSerializationRoundTrips) {
  SiftResponse r;
  r.frame_id = 7;
  r.keep = qkd::BitVector::from_string("1011001");
  const SiftResponse back = SiftResponse::deserialize(r.serialize());
  EXPECT_EQ(back.frame_id, 7u);
  EXPECT_EQ(back.keep, r.keep);
}

TEST(Sifting, DeserializeRejectsGarbage) {
  EXPECT_THROW(SiftMessage::deserialize(Bytes{1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(SiftResponse::deserialize(Bytes{}), std::invalid_argument);
}

TEST(Sifting, BothSidesAgreeOnSlotIndices) {
  const auto frame = small_frame(2);
  const SiftMessage msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const SiftOutcome bob = bob_apply_response(frame.bob, msg, alice.response);
  EXPECT_EQ(alice.outcome.slot_indices, bob.slot_indices);
  EXPECT_EQ(alice.outcome.bits.size(), bob.bits.size());
}

TEST(Sifting, KeepsOnlyMatchingBasisDetections) {
  const auto frame = small_frame(3);
  const SiftMessage msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  for (std::uint32_t slot : alice.outcome.slot_indices) {
    EXPECT_TRUE(frame.bob.detected.get(slot));
    EXPECT_EQ(frame.alice.bases.get(slot), frame.bob.bases.get(slot));
  }
}

TEST(Sifting, SiftedFractionIsHalfOfDetections) {
  const auto frame = small_frame(4, 500000);
  const SiftMessage msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
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
  const SiftMessage msg = make_sift_message(0, frame.bob);
  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const SiftOutcome bob = bob_apply_response(frame.bob, msg, alice.response);
  ASSERT_GT(alice.outcome.bits.size(), 100u);
  const double qber =
      static_cast<double>(alice.outcome.bits.hamming_distance(bob.bits)) /
      static_cast<double>(alice.outcome.bits.size());
  EXPECT_GT(qber, 0.02);
  EXPECT_LT(qber, 0.12);
}

TEST(Sifting, AliceRejectsWrongFrameSize) {
  const auto frame = small_frame(6, 10000);
  SiftMessage msg = make_sift_message(0, frame.bob);
  msg.detected.resize(5000);
  EXPECT_THROW(alice_sift(frame.alice, msg), std::invalid_argument);
}

TEST(Sifting, BobRejectsMismatchedResponse) {
  const auto frame = small_frame(7, 10000);
  const SiftMessage msg = make_sift_message(3, frame.bob);
  SiftResponse bad;
  bad.frame_id = 3;
  bad.keep = qkd::BitVector(msg.bob_bases.size() + 1);
  EXPECT_THROW(bob_apply_response(frame.bob, msg, bad), std::invalid_argument);
  SiftResponse wrong_frame;
  wrong_frame.frame_id = 4;
  wrong_frame.keep = qkd::BitVector(msg.bob_bases.size());
  EXPECT_THROW(bob_apply_response(frame.bob, msg, wrong_frame),
               std::invalid_argument);
}

TEST(Sifting, DeserializeRejectsInconsistentBasisCount) {
  const auto frame = small_frame(8, 10000);
  SiftMessage msg = make_sift_message(0, frame.bob);
  msg.bob_bases.push_back(true);  // one basis too many
  EXPECT_THROW(SiftMessage::deserialize(msg.serialize()),
               std::invalid_argument);
}

// ---- Word-level sifting equals the bit-by-bit definition ------------------
//
// Sifting is a pure function of the frame, so the word-level implementation
// must reproduce, bit for bit, what a slot-by-slot walk computes. The walk
// below is that definition, kept here as the oracle.

namespace reference {

SiftMessage make_sift_message(std::uint64_t frame_id,
                              const qkd::optics::DetectionRecord& bob) {
  SiftMessage msg;
  msg.frame_id = frame_id;
  msg.detected = bob.detected;
  for (std::size_t i = 0; i < bob.size(); ++i)
    if (bob.detected.get(i)) msg.bob_bases.push_back(bob.bases.get(i));
  return msg;
}

AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const SiftMessage& msg) {
  AliceSiftResult result;
  result.response.frame_id = msg.frame_id;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < alice.size(); ++slot) {
    if (!msg.detected.get(slot)) continue;
    const bool match = msg.bob_bases.get(det_index) == alice.bases.get(slot);
    result.response.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(alice.values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const SiftResponse& response) {
  SiftOutcome outcome;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < bob.size(); ++slot) {
    if (!bob.detected.get(slot)) continue;
    if (response.keep.get(det_index)) {
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

Bytes encode_announce(const SiftMessage& msg) {
  Bytes out;
  put_varint(out, msg.frame_id);
  put_bits_sparse(out, msg.detected);
  put_bits_dense(out, msg.bob_bases);
  return out;
}

Bytes encode_decision(const SiftResponse& response) {
  Bytes out;
  put_varint(out, response.frame_id);
  put_bits_dense(out, response.keep);
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
  const SiftMessage msg = make_sift_message(frame_id, frame.bob);
  const SiftMessage ref_msg = reference::make_sift_message(frame_id, frame.bob);
  EXPECT_EQ(msg.frame_id, ref_msg.frame_id);
  EXPECT_EQ(msg.detected, ref_msg.detected);
  EXPECT_EQ(msg.bob_bases, ref_msg.bob_bases);

  const AliceSiftResult alice = alice_sift(frame.alice, msg);
  const AliceSiftResult ref_alice = reference::alice_sift(frame.alice, msg);
  EXPECT_EQ(alice.response.frame_id, ref_alice.response.frame_id);
  EXPECT_EQ(alice.response.keep, ref_alice.response.keep);
  EXPECT_EQ(alice.outcome.bits, ref_alice.outcome.bits);
  EXPECT_EQ(alice.outcome.slot_indices, ref_alice.outcome.slot_indices);

  const SiftOutcome bob = bob_apply_response(frame.bob, msg, alice.response);
  const SiftOutcome ref_bob =
      reference::bob_apply_response(frame.bob, alice.response);
  EXPECT_EQ(bob.bits, ref_bob.bits);
  EXPECT_EQ(bob.slot_indices, ref_bob.slot_indices);

  // The wire bytes of both sifting packets, and their decodings.
  wire::SiftAnnounce announce;
  announce.frame_id = msg.frame_id;
  announce.detected = msg.detected;
  announce.bob_bases = msg.bob_bases;
  const Bytes announce_bytes = announce.encode();
  EXPECT_EQ(announce_bytes, reference::encode_announce(ref_msg));
  const auto announce_back = wire::SiftAnnounce::decode(announce_bytes);
  ASSERT_TRUE(announce_back.ok());
  EXPECT_EQ(announce_back.value, announce);

  wire::SiftDecision decision;
  decision.frame_id = alice.response.frame_id;
  decision.keep = alice.response.keep;
  const Bytes decision_bytes = decision.encode();
  EXPECT_EQ(decision_bytes, reference::encode_decision(ref_alice.response));
  const auto decision_back = wire::SiftDecision::decode(decision_bytes);
  ASSERT_TRUE(decision_back.ok());
  EXPECT_EQ(decision_back.value, decision);

  // The legacy SiftMessage serialisation (run-length coded) round-trips.
  const SiftMessage round = SiftMessage::deserialize(msg.serialize());
  EXPECT_EQ(round.detected, msg.detected);
  EXPECT_EQ(round.bob_bases, msg.bob_bases);
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

}  // namespace
}  // namespace qkd::proto
