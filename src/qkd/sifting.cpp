#include "src/qkd/sifting.hpp"

#include <stdexcept>

namespace qkd::proto {

wire::SiftAnnounce make_sift_announce(std::uint64_t frame_id,
                                      const qkd::optics::DetectionRecord& bob) {
  wire::SiftAnnounce announce;
  announce.frame_id = frame_id;
  announce.slots = bob.size();
  bob.detected.for_each_set_bit([&](std::size_t slot) {
    announce.clicks.push_back(static_cast<std::uint32_t>(slot));
    announce.bob_bases.push_back(bob.bases.get(slot));
  });
  return announce;
}

AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const wire::SiftAnnounce& announce) {
  if (announce.slots != alice.size())
    throw std::invalid_argument("alice_sift: frame size mismatch");
  if (announce.bob_bases.size() != announce.clicks.size())
    throw std::invalid_argument("alice_sift: one basis per click");
  AliceSiftResult result;
  result.decision.frame_id = announce.frame_id;
  result.decision.keep = qkd::BitVector(announce.clicks.size());
  for (std::size_t i = 0; i < announce.clicks.size(); ++i) {
    const std::uint32_t slot = announce.clicks[i];
    if (announce.bob_bases.get(i) != alice.bases.get(slot)) continue;
    result.decision.keep.set(i, true);
    result.outcome.bits.push_back(alice.values.get(slot));
    result.outcome.slot_indices.push_back(slot);
  }
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision) {
  if (decision.keep.size() != announce.clicks.size())
    throw std::invalid_argument("bob_apply_response: keep length mismatch");
  if (decision.frame_id != announce.frame_id)
    throw std::invalid_argument("bob_apply_response: frame id mismatch");
  SiftOutcome outcome;
  decision.keep.for_each_set_bit([&](std::size_t i) {
    const std::uint32_t slot = announce.clicks[i];
    outcome.bits.push_back(bob.bits.get(slot));
    outcome.slot_indices.push_back(slot);
  });
  return outcome;
}

}  // namespace qkd::proto
