// Sifting: winnowing the failed qubits (Section 5).
//
// After a frame, Bob tells Alice which slots produced a usable detection and
// which basis he measured each in (the SIFT message, wire::SiftAnnounce).
// Alice replies with the subset of those detections where her transmission
// basis matched (the SIFT RESPONSE, wire::SiftDecision). Both sides then
// discard everything else, keeping only the sifted bits. "A transmitted
// stream of 1,000 bits therefore would boil down to about 5 sifted bits."
//
// A frame is its click list, so sifting costs one step per click, never
// one per slot: Bob's announce copies his half of the list, and Alice walks
// the announce and her own clicks in lockstep. No step branches on a
// basis: the per-click bits (Bob's bases, Alice's keep mask) are built a
// 64-click word at a time, and both sides compact the kept clicks without
// a branch, writing every click's slot and value at the next free
// position of outputs sized for all n clicks and advancing that position
// by the click's keep bit, then trimming to the kept count.
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

/// Bob's half: the SIFT announce from his clicks — their slots in order
/// and his basis for each. Reads only Bob's half of each click.
wire::SiftAnnounce make_sift_announce(std::uint64_t frame_id,
                                      const qkd::optics::FrameResult& frame);

/// Alice's half: compares bases, produces the decision and her sifted bits.
/// Throws std::invalid_argument when the announce does not fit her frame:
/// another frame size, a basis count unequal to the click count, or an
/// announced slot that is not one of her clicks.
struct AliceSiftResult {
  wire::SiftDecision decision;
  SiftOutcome outcome;
};
AliceSiftResult alice_sift(const qkd::optics::FrameResult& frame,
                           const wire::SiftAnnounce& announce);

/// Bob's completion: keeps his bits at the clicks Alice's decision keeps.
/// `announce` is the one he made from `frame`; reads only his half.
SiftOutcome bob_apply_response(const qkd::optics::FrameResult& frame,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision);

}  // namespace qkd::proto
