#include "src/qkd/peer.hpp"

#include <optional>

#include "src/qkd/pipeline.hpp"
#include "src/qkd/sifting.hpp"

namespace qkd::proto {
namespace {

/// The closing handshake: both sides send a KeyDigest (kept out of the
/// control-traffic counts) and check the peer's against their own.
StageHalf confirm_key(Side& s, wire::Transport& io) {
  wire::KeyDigest mine;
  mine.frame_id = s.frame_id;
  mine.key_bits = s.key.size();
  mine.digest = digest_bytes(s.key);
  if (!io.send_frame(wire::to_checked_frame(mine)))
    co_return AbortReason::kChannelLost;
  const auto theirs = co_await s.wire.recv<wire::KeyDigest>();
  const bool same =
      theirs.key_bits == mine.key_bits && theirs.digest == mine.digest;
  co_return same ? AbortReason::kNone : AbortReason::kVerifyFailed;
}

/// Runs this side's half of every stage in order, unless `reason` already
/// ended the batch, then confirms an accepted key with the peer. The pads
/// are repaid only once the peer has confirmed the same key: a side cannot
/// know from its own tag check that the peer's passed too.
PeerOutcome run_dialogue(Side& s, bool is_alice, wire::Transport& io,
                         AbortReason reason = AbortReason::kNone) {
  for (const StageHalves& stage : fig9_dialogue()) {
    if (reason != AbortReason::kNone) break;
    StageHalf half = (is_alice ? stage.alice : stage.bob)(s);
    reason = run_alone(half, s.wire);
  }
  PeerOutcome out;
  out.accepted = reason == AbortReason::kNone;
  out.reason = reason;
  out.frame_id = s.frame_id;
  out.sifted_bits = s.sifted_slots.size();
  out.errors_corrected = s.errors_corrected;
  out.qber_sampled = s.qber_sampled;
  out.control_messages = s.wire.traffic().messages;
  out.control_bytes = s.wire.traffic().bytes;
  if (out.accepted) {
    const qkd::BitVector pad_share = take_pad_share(s);
    out.key = s.key;
    StageHalf confirm = confirm_key(s, io);
    out.digest_matched = run_alone(confirm, s.wire) == AbortReason::kNone;
    if (out.digest_matched) s.party.auth.replenish(pad_share);
  }
  return out;
}

/// The quantum channel at Bob's end: this batch's detections, from Alice's
/// feed. His half of each click is all it carries and all he reads; the
/// feed's frame id names the batch.
std::optional<qkd::optics::FrameResult> receive_feed(wire::Transport& io,
                                                     std::uint64_t& frame_id) {
  const auto raw = io.recv_frame();
  if (!raw.has_value()) return std::nullopt;
  const auto frame = wire::decode_frame(*raw);
  if (!frame.ok() || frame.value.type != wire::PacketType::kQframeFeed)
    return std::nullopt;
  const auto feed = wire::QframeFeed::decode(frame.value.payload);
  if (!feed.ok()) return std::nullopt;
  frame_id = feed.value.frame_id;
  qkd::optics::FrameResult detections;
  detections.slots = feed.value.slots;
  for (std::size_t i = 0; i < feed.value.clicks.size(); ++i)
    detections.clicks.push_back(
        {.slot = feed.value.clicks[i],
         .bob_basis = qkd::optics::basis_from_bit(feed.value.bases.get(i)),
         .bob_bit = feed.value.bits.get(i)});
  return detections;
}

}  // namespace

AlicePeer::AlicePeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config),
      link_(config.link, seed),
      party_(config, seed, /*is_alice=*/true) {}

PeerOutcome AlicePeer::run_batch(wire::Transport& io) {
  const std::uint64_t frame_id = next_frame_id_++;
  // The quantum channel, simulated here: Bob gets his half of every click.
  const auto frame = link_.run_frame(config_.frame_slots, nullptr);
  wire::SiftAnnounce bob_half = make_sift_announce(frame_id, frame);
  wire::QframeFeed feed{frame_id, bob_half.slots, std::move(bob_half.clicks),
                        std::move(bob_half.bob_bases), {}};
  for (const qkd::optics::Click& click : frame.clicks)
    feed.bits.push_back(click.bob_bit);
  Side alice(config_, party_, io, /*is_alice=*/true, frame, frame_id);
  const bool fed = io.send_frame(wire::to_frame(feed));
  return run_dialogue(alice, /*is_alice=*/true, io,
                      fed ? AbortReason::kNone : AbortReason::kChannelLost);
}

BobPeer::BobPeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config), party_(config, seed, /*is_alice=*/false) {}

PeerOutcome BobPeer::run_batch(wire::Transport& io) {
  std::uint64_t frame_id = 0;
  const auto detections = receive_feed(io, frame_id);
  const qkd::optics::FrameResult nothing;
  Side bob(config_, party_, io, /*is_alice=*/false,
           detections.has_value() ? *detections : nothing, frame_id);
  return run_dialogue(bob, /*is_alice=*/false, io,
                      detections.has_value() ? AbortReason::kNone
                                             : AbortReason::kChannelLost);
}

}  // namespace qkd::proto
