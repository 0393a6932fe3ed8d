#include "src/qkd/sifting.hpp"

#include <stdexcept>

namespace qkd::proto {

wire::SiftAnnounce make_sift_announce(std::uint64_t frame_id,
                                      const qkd::optics::FrameResult& frame) {
  wire::SiftAnnounce announce{.frame_id = frame_id, .slots = frame.slots};
  announce.clicks.reserve(frame.clicks.size());
  for (const qkd::optics::Click& click : frame.clicks) {
    announce.clicks.push_back(click.slot);
    announce.bob_bases.push_back(click.bob_basis ==
                                 qkd::optics::Basis::kDiagonal);
  }
  return announce;
}

AliceSiftResult alice_sift(const qkd::optics::FrameResult& frame,
                           const wire::SiftAnnounce& announce) {
  if (announce.slots != frame.slots)
    throw std::invalid_argument("alice_sift: frame size mismatch");
  if (announce.bob_bases.size() != announce.clicks.size())
    throw std::invalid_argument("alice_sift: one basis per click");
  AliceSiftResult result;
  result.decision.frame_id = announce.frame_id;
  result.decision.keep = qkd::BitVector(announce.clicks.size());
  // Both lists are sorted: advance to each announced slot.
  auto mine = frame.clicks.begin();
  for (std::size_t i = 0; i < announce.clicks.size(); ++i) {
    const std::uint32_t slot = announce.clicks[i];
    while (mine != frame.clicks.end() && mine->slot < slot) ++mine;
    if (mine == frame.clicks.end() || mine->slot != slot)
      throw std::invalid_argument("alice_sift: announced slot did not click");
    if (qkd::optics::basis_from_bit(announce.bob_bases.get(i)) !=
        mine->alice_basis)
      continue;
    result.decision.keep.set(i, true);
    result.outcome.bits.push_back(mine->alice_value);
    result.outcome.slot_indices.push_back(slot);
  }
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::FrameResult& frame,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision) {
  if (announce.clicks.size() != frame.clicks.size())
    throw std::invalid_argument("bob_apply_response: click count mismatch");
  if (decision.keep.size() != announce.clicks.size())
    throw std::invalid_argument("bob_apply_response: keep length mismatch");
  if (decision.frame_id != announce.frame_id)
    throw std::invalid_argument("bob_apply_response: frame id mismatch");
  SiftOutcome outcome;
  decision.keep.for_each_set_bit([&](std::size_t i) {
    const qkd::optics::Click& click = frame.clicks[i];
    outcome.bits.push_back(click.bob_bit);
    outcome.slot_indices.push_back(click.slot);
  });
  return outcome;
}

}  // namespace qkd::proto
