// Sifting: winnowing the failed qubits (Section 5).
//
// After a frame, Bob tells Alice which slots produced a usable detection and
// which basis he measured each in (the SIFT message, wire::SiftAnnounce).
// Alice replies with the subset of those detections where her transmission
// basis matched (the SIFT RESPONSE, wire::SiftDecision). Both sides then
// discard everything else, keeping only the sifted bits. "A transmitted
// stream of 1,000 bits therefore would boil down to about 5 sifted bits."
//
// Bob walks his detection bitmap once, to list his clicks; from then on
// both sides work from that list, so sifting costs one step per click
// after that walk, not one per slot.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/optics/types.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// Outcome on either side: the sifted key bits plus, for ground-truth joins
/// (attack accounting, diagnostics), the original slot index of each bit.
struct SiftOutcome {
  qkd::BitVector bits;
  std::vector<std::uint32_t> slot_indices;
};

/// Bob's half: the SIFT announce from his detection record — his clicks in
/// slot order and his basis for each.
wire::SiftAnnounce make_sift_announce(std::uint64_t frame_id,
                                      const qkd::optics::DetectionRecord& bob);

/// Alice's half: compares bases, produces the decision and her sifted bits.
struct AliceSiftResult {
  wire::SiftDecision decision;
  SiftOutcome outcome;
};
AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const wire::SiftAnnounce& announce);

/// Bob's completion: keeps his bits at the clicks Alice's decision keeps.
SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision);

}  // namespace qkd::proto
