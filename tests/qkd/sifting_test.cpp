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
  const wire::SiftAnnounce announce = make_sift_announce(42, frame);
  const auto back = wire::SiftAnnounce::decode(announce.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value.frame_id, 42u);
  EXPECT_EQ(back.value.slots, frame.slots);
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
  const wire::SiftAnnounce announce = make_sift_announce(0, frame);
  const AliceSiftResult alice = alice_sift(frame, announce);
  const SiftOutcome bob =
      bob_apply_response(frame, announce, alice.decision);
  EXPECT_EQ(alice.outcome.slot_indices, bob.slot_indices);
  EXPECT_EQ(alice.outcome.bits.size(), bob.bits.size());
}

TEST(Sifting, KeepsOnlyMatchingBasisDetections) {
  const auto frame = small_frame(3);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame);
  const AliceSiftResult alice = alice_sift(frame, announce);
  std::size_t matched = 0;
  for (const qkd::optics::Click& click : frame.clicks) {
    if (click.alice_basis != click.bob_basis) continue;
    ASSERT_LT(matched, alice.outcome.slot_indices.size());
    EXPECT_EQ(alice.outcome.slot_indices[matched++], click.slot);
  }
  EXPECT_EQ(matched, alice.outcome.slot_indices.size());
}

TEST(Sifting, SiftedFractionIsHalfOfDetections) {
  const auto frame = small_frame(4, 500000);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame);
  const AliceSiftResult alice = alice_sift(frame, announce);
  const double detections = static_cast<double>(frame.clicks.size());
  ASSERT_GT(detections, 100);
  EXPECT_NEAR(static_cast<double>(alice.outcome.bits.size()) / detections,
              0.5, 0.08);
}

TEST(Sifting, SiftedBitsMostlyAgree) {
  // At the paper's operating point the sifted strings differ only by the
  // 6-8 % QBER.
  const auto frame = small_frame(5, 500000);
  const wire::SiftAnnounce announce = make_sift_announce(0, frame);
  const AliceSiftResult alice = alice_sift(frame, announce);
  const SiftOutcome bob =
      bob_apply_response(frame, announce, alice.decision);
  ASSERT_GT(alice.outcome.bits.size(), 100u);
  const double qber =
      static_cast<double>(alice.outcome.bits.hamming_distance(bob.bits)) /
      static_cast<double>(alice.outcome.bits.size());
  EXPECT_GT(qber, 0.02);
  EXPECT_LT(qber, 0.12);
}

TEST(Sifting, AliceRejectsWrongFrameSize) {
  const auto frame = small_frame(6, 10000);
  wire::SiftAnnounce announce = make_sift_announce(0, frame);
  announce.slots = 5000;
  EXPECT_THROW(alice_sift(frame, announce), std::invalid_argument);
  announce.slots = frame.slots;
  announce.bob_bases.push_back(false);  // one basis more than clicks
  EXPECT_THROW(alice_sift(frame, announce), std::invalid_argument);
}

TEST(Sifting, AliceRejectsAnnouncedSlotThatDidNotClick) {
  // Alice holds her settings only at the frame's clicks, so an announced
  // slot that did not click has nothing to compare against: a loud
  // failure, not a silent read of the wrong click.
  const auto frame = small_frame(10, 20000);
  ASSERT_GE(frame.clicks.size(), 2u);
  const std::uint32_t first = frame.clicks[0].slot;
  ASSERT_LT(first + 1, frame.clicks[1].slot);

  wire::SiftAnnounce between = make_sift_announce(0, frame);
  between.clicks[0] = first + 1;  // still sorted, but no click there
  EXPECT_THROW(alice_sift(frame, between), std::invalid_argument);

  wire::SiftAnnounce before = make_sift_announce(0, frame);
  ASSERT_GT(first, 0u);
  before.clicks.insert(before.clicks.begin(), 0);
  before.bob_bases.push_back(false);
  EXPECT_THROW(alice_sift(frame, before), std::invalid_argument);

  wire::SiftAnnounce past = make_sift_announce(0, frame);
  ASSERT_LT(frame.clicks.back().slot + 1, frame.slots);
  past.clicks.push_back(static_cast<std::uint32_t>(frame.slots - 1));
  past.bob_bases.push_back(false);
  EXPECT_THROW(alice_sift(frame, past), std::invalid_argument);
}

TEST(Sifting, BobRejectsMismatchedResponse) {
  const auto frame = small_frame(7, 10000);
  const wire::SiftAnnounce announce = make_sift_announce(3, frame);
  wire::SiftDecision bad;
  bad.frame_id = 3;
  bad.keep = qkd::BitVector(announce.clicks.size() + 1);
  EXPECT_THROW(bob_apply_response(frame, announce, bad),
               std::invalid_argument);
  wire::SiftDecision wrong_frame;
  wrong_frame.frame_id = 4;
  wrong_frame.keep = qkd::BitVector(announce.clicks.size());
  EXPECT_THROW(bob_apply_response(frame, announce, wrong_frame),
               std::invalid_argument);
}

TEST(Sifting, DeserializeRejectsInconsistentBasisCount) {
  const auto frame = small_frame(8, 10000);
  wire::SiftAnnounce announce = make_sift_announce(0, frame);
  announce.bob_bases.push_back(true);  // one basis too many
  EXPECT_FALSE(wire::SiftAnnounce::decode(announce.encode()).ok());
}

// ---- Click-list sifting equals the bit-by-bit definition ------------------
//
// Sifting is a pure function of the frame, so the click-list implementation
// must reproduce, bit for bit, what a slot-by-slot walk over the frame's
// per-slot bitmaps computes. The walk below is that definition, kept here
// as the oracle.

namespace reference {

/// The frame spread over per-slot bitmaps, the form the definition walks;
/// slots without a click hold zeros.
struct Bitmaps {
  qkd::BitVector detected, alice_bases, alice_values, bob_bases, bob_bits;
};

Bitmaps bitmaps(const qkd::optics::FrameResult& frame) {
  Bitmaps out;
  for (qkd::BitVector* bits :
       {&out.detected, &out.alice_bases, &out.alice_values, &out.bob_bases,
        &out.bob_bits})
    *bits = qkd::BitVector(frame.slots);
  for (const qkd::optics::Click& click : frame.clicks) {
    out.detected.set(click.slot, true);
    out.alice_bases.set(click.slot,
                        click.alice_basis == qkd::optics::Basis::kDiagonal);
    out.alice_values.set(click.slot, click.alice_value);
    out.bob_bases.set(click.slot,
                      click.bob_basis == qkd::optics::Basis::kDiagonal);
    out.bob_bits.set(click.slot, click.bob_bit);
  }
  return out;
}

/// Bob's clicks in slot order and his basis for each.
struct Announce {
  std::vector<std::uint32_t> clicks;
  qkd::BitVector bob_bases;
};

Announce announce(const Bitmaps& frame) {
  Announce out;
  for (std::size_t slot = 0; slot < frame.detected.size(); ++slot) {
    if (!frame.detected.get(slot)) continue;
    out.clicks.push_back(static_cast<std::uint32_t>(slot));
    out.bob_bases.push_back(frame.bob_bases.get(slot));
  }
  return out;
}

/// Alice's keep bit per click and her sifted bits, walking every slot of
/// Bob's detection bitmap.
struct AliceSide {
  qkd::BitVector keep;
  SiftOutcome outcome;
};

AliceSide alice_sift(const Bitmaps& frame, const qkd::BitVector& bob_bases) {
  AliceSide result;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < frame.detected.size(); ++slot) {
    if (!frame.detected.get(slot)) continue;
    const bool match = bob_bases.get(det_index) == frame.alice_bases.get(slot);
    result.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(frame.alice_values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
    ++det_index;
  }
  return result;
}

SiftOutcome bob_apply_response(const Bitmaps& frame,
                               const qkd::BitVector& keep) {
  SiftOutcome outcome;
  std::size_t det_index = 0;
  for (std::size_t slot = 0; slot < frame.detected.size(); ++slot) {
    if (!frame.detected.get(slot)) continue;
    if (keep.get(det_index)) {
      outcome.bits.push_back(frame.bob_bits.get(slot));
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
Bytes encode_announce(std::uint64_t frame_id, const Bitmaps& frame) {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_sparse(out, frame.detected);
  put_bits_dense(out, announce(frame).bob_bases);
  return out;
}

Bytes encode_decision(std::uint64_t frame_id, const qkd::BitVector& keep) {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_dense(out, keep);
  return out;
}

}  // namespace reference

/// A random click setting: uniform bases, value and bit.
qkd::optics::Click random_click(qkd::Rng& rng, std::size_t slot) {
  return {static_cast<std::uint32_t>(slot),
          qkd::optics::basis_from_bit(rng.next_bool()), rng.next_bool(),
          qkd::optics::basis_from_bit(rng.next_bool()), rng.next_bool(),
          rng.next_bool()};
}

/// A frame whose every slot independently clicks with `density`, each
/// click with uniform settings.
qkd::optics::FrameResult random_frame(qkd::Rng& rng, std::size_t slots,
                                      double density) {
  qkd::optics::FrameResult frame;
  frame.slots = slots;
  for (std::size_t i = 0; i < slots; ++i)
    if (rng.next_bool(density)) frame.clicks.push_back(random_click(rng, i));
  return frame;
}

/// Adds clicks in the frame's first and last slot where it has none.
void click_at_both_ends(qkd::Rng& rng, qkd::optics::FrameResult& frame) {
  auto& clicks = frame.clicks;
  if (clicks.empty() || clicks.front().slot != 0)
    clicks.insert(clicks.begin(), random_click(rng, 0));
  if (clicks.back().slot != frame.slots - 1)
    clicks.push_back(random_click(rng, frame.slots - 1));
}

void expect_sift_matches_reference(const qkd::optics::FrameResult& frame,
                                   std::uint64_t frame_id) {
  const reference::Bitmaps bitmaps = reference::bitmaps(frame);
  const wire::SiftAnnounce announce = make_sift_announce(frame_id, frame);
  const reference::Announce ref = reference::announce(bitmaps);
  EXPECT_EQ(announce.frame_id, frame_id);
  EXPECT_EQ(announce.slots, frame.slots);
  EXPECT_EQ(announce.clicks, ref.clicks);
  EXPECT_EQ(announce.bob_bases, ref.bob_bases);

  const AliceSiftResult alice = alice_sift(frame, announce);
  const reference::AliceSide ref_alice =
      reference::alice_sift(bitmaps, ref.bob_bases);
  EXPECT_EQ(alice.decision.frame_id, frame_id);
  EXPECT_EQ(alice.decision.keep, ref_alice.keep);
  EXPECT_EQ(alice.outcome.bits, ref_alice.outcome.bits);
  EXPECT_EQ(alice.outcome.slot_indices, ref_alice.outcome.slot_indices);

  const SiftOutcome bob = bob_apply_response(frame, announce, alice.decision);
  const SiftOutcome ref_bob =
      reference::bob_apply_response(bitmaps, ref_alice.keep);
  EXPECT_EQ(bob.bits, ref_bob.bits);
  EXPECT_EQ(bob.slot_indices, ref_bob.slot_indices);

  // The wire bytes of both sifting packets, and their decodings.
  const Bytes announce_bytes = announce.encode();
  EXPECT_EQ(announce_bytes, reference::encode_announce(frame_id, bitmaps));
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
    click_at_both_ends(rng, frame);
    // Force one kept and one dropped click where the ends differ.
    frame.clicks.front().alice_basis = frame.clicks.front().bob_basis;
    if (slots > 1)
      frame.clicks.back().alice_basis =
          qkd::optics::basis_from_bit(frame.clicks.back().bob_basis ==
                                      qkd::optics::Basis::kRectilinear);
    expect_sift_matches_reference(frame, 9);
  }
}

TEST(SiftingEquivalence, SimulatedQframeMatches) {
  expect_sift_matches_reference(small_frame(73, 1 << 20), 5);
}

// ---- Compaction edges -----------------------------------------------------
//
// Both sides compact the kept clicks a 64-click word at a time, so the
// cases below sit on the word grid: click counts either side of one and
// two words, every click kept or none, and kept runs that straddle a word
// of the input and of the output.

/// A frame of exactly `n` clicks at random increasing slots.
qkd::optics::FrameResult frame_with_clicks(qkd::Rng& rng, std::size_t n) {
  qkd::optics::FrameResult frame;
  std::size_t slot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    slot += 1 + rng.next_below(4);
    frame.clicks.push_back(random_click(rng, slot));
  }
  frame.slots = slot + 1 + rng.next_below(4);
  return frame;
}

/// Sets each click's Alice basis so that click i is kept iff keep(i).
template <typename Keep>
void keep_where(qkd::optics::FrameResult& frame, Keep keep) {
  for (std::size_t i = 0; i < frame.clicks.size(); ++i) {
    qkd::optics::Click& click = frame.clicks[i];
    const bool diagonal = click.bob_basis == qkd::optics::Basis::kDiagonal;
    click.alice_basis = qkd::optics::basis_from_bit(keep(i) ? diagonal
                                                           : !diagonal);
  }
}

constexpr std::size_t kWordEdgeCounts[] = {0, 1, 63, 64, 65, 127, 128, 129};

TEST(SiftingEquivalence, ClickCountsOnTheWordGridMatch) {
  QKD_SEEDED_RNG(rng, 101);
  for (std::size_t n : kWordEdgeCounts) {
    SCOPED_TRACE("clicks=" + std::to_string(n));
    const qkd::optics::FrameResult frame = frame_with_clicks(rng, n);
    ASSERT_EQ(frame.clicks.size(), n);
    expect_sift_matches_reference(frame, n);
  }
}

TEST(SiftingEquivalence, AllKeptAndNoneKeptMatch) {
  QKD_SEEDED_RNG(rng, 103);
  for (std::size_t n : kWordEdgeCounts) {
    SCOPED_TRACE("clicks=" + std::to_string(n));
    qkd::optics::FrameResult frame = frame_with_clicks(rng, n);
    keep_where(frame, [](std::size_t) { return true; });
    expect_sift_matches_reference(frame, 1);
    EXPECT_EQ(alice_sift(frame, make_sift_announce(1, frame))
                  .outcome.bits.size(),
              n);
    keep_where(frame, [](std::size_t) { return false; });
    expect_sift_matches_reference(frame, 2);
    EXPECT_TRUE(alice_sift(frame, make_sift_announce(2, frame))
                    .outcome.bits.empty());
  }
}

TEST(SiftingEquivalence, KeptRunsAcrossWordsMatch) {
  QKD_SEEDED_RNG(rng, 107);
  qkd::optics::FrameResult frame = frame_with_clicks(rng, 300);
  // Clicks 50..80 and 120..200 kept: the first run crosses input word 0/1,
  // the second crosses input words 1/2 and 2/3 and, at output position 64,
  // the first output word.
  keep_where(frame, [](std::size_t i) {
    return (i >= 50 && i <= 80) || (i >= 120 && i <= 200);
  });
  expect_sift_matches_reference(frame, 3);
  // Runs of 37 kept, 5 dropped: every output word boundary falls inside a
  // run, at a different input offset each time.
  keep_where(frame, [](std::size_t i) { return i % 42 < 37; });
  expect_sift_matches_reference(frame, 4);
}

TEST(SiftingEquivalence, AnnouncedSubsetMatchesAFrameOfOnlyThoseClicks) {
  // Alice's merge path: Bob names only some of her clicks. Her result must
  // be what she would compute from a frame holding just those clicks.
  QKD_SEEDED_RNG(rng, 109);
  for (std::size_t n : {1u, 65u, 129u, 1000u}) {
    SCOPED_TRACE("clicks=" + std::to_string(n));
    const qkd::optics::FrameResult frame = frame_with_clicks(rng, n);
    qkd::optics::FrameResult subset;
    subset.slots = frame.slots;
    for (const qkd::optics::Click& click : frame.clicks)
      if (rng.next_bool(0.3)) subset.clicks.push_back(click);
    if (subset.clicks.size() == frame.clicks.size()) subset.clicks.pop_back();
    const wire::SiftAnnounce announce = make_sift_announce(6, subset);
    const AliceSiftResult merged = alice_sift(frame, announce);
    const AliceSiftResult alone = alice_sift(subset, announce);
    EXPECT_EQ(merged.decision, alone.decision);
    EXPECT_EQ(merged.outcome.bits, alone.outcome.bits);
    EXPECT_EQ(merged.outcome.slot_indices, alone.outcome.slot_indices);
    expect_sift_matches_reference(subset, 6);
  }
}

// ---- Sift wire-byte pin ---------------------------------------------------
//
// The SiftAnnounce payload is fixed by its definition (see
// reference::encode_announce): for a given click list, the bytes are those
// of Bob's detection bitmap walked slot by slot.

void expect_pinned_announce(const qkd::optics::FrameResult& frame,
                            std::uint64_t frame_id) {
  const wire::SiftAnnounce announce = make_sift_announce(frame_id, frame);
  const Bytes bytes = announce.encode();
  EXPECT_EQ(bytes,
            reference::encode_announce(frame_id, reference::bitmaps(frame)));
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
      expect_pinned_announce(link.run_frame(1 << 20), frame_id);
  }
}

TEST(SiftWirePin, EmptyFrames) {
  QKD_SEEDED_RNG(rng, 83);
  for (std::size_t slots : {0u, 1u, 64u, 1000u, 1u << 20}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    expect_pinned_announce(random_frame(rng, slots, 0.0), slots);
  }
}

TEST(SiftWirePin, ClicksInTheFirstAndLastSlot) {
  QKD_SEEDED_RNG(rng, 89);
  for (std::size_t slots : {1u, 2u, 64u, 65u, 4096u, 1u << 20}) {
    SCOPED_TRACE("slots=" + std::to_string(slots));
    qkd::optics::FrameResult frame = random_frame(rng, slots, 0.003);
    click_at_both_ends(rng, frame);
    frame.clicks.back().bob_basis = qkd::optics::Basis::kDiagonal;
    expect_pinned_announce(frame, 1u << 31);
  }
}

TEST(SiftWirePin, FrameSizesOffTheWordGrid) {
  QKD_SEEDED_RNG(rng, 97);
  for (std::size_t slots : {3u, 63u, 65u, 127u, 129u, 1000003u}) {
    for (double density : {0.003, 0.3, 1.0}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " density=" + std::to_string(density));
      expect_pinned_announce(random_frame(rng, slots, density), 7);
    }
  }
}

}  // namespace
}  // namespace qkd::proto
