// Single-sided distillation peers: Alice's end and Bob's end of the Fig. 9
// dialogue, each runnable in its OWN process over any wire::Transport (in
// practice the TCP transport — the integration suite forks one process per
// endpoint and connects them over localhost).
//
// A peer runs its side's half of every stage (src/qkd/pipeline.hpp), in
// order, over its transport, where a receive blocks: the same halves the
// in-process QkdLinkSession interleaves, so the dialogue is frame for
// frame the same. Both peers key each batch's DRBGs from one shared seed
// and the frame id, which Bob takes from the feed, so the sample positions
// agree without crossing the wire, whatever became of earlier batches.
//
// Two frame types exist only here and are excluded from control-traffic
// accounting: QframeFeed (Alice simulates the optics and feeds Bob his
// detection record — the QUANTUM channel, bootstrapped) and KeyDigest
// (each side proves its distilled key byte-identical to the other's).
#pragma once

#include <cstdint>

#include "src/optics/link.hpp"
#include "src/qkd/engine.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// One batch's outcome as seen from one side of the wire.
struct PeerOutcome {
  bool accepted = false;
  AbortReason reason = AbortReason::kNone;
  qkd::BitVector key;             // this side's distilled block
  bool digest_matched = false;    // peer's KeyDigest agreed with ours
  std::uint64_t frame_id = 0;
  std::size_t sifted_bits = 0;
  std::size_t errors_corrected = 0;
  double qber_sampled = 0.0;
  // Control frames THIS side put on the wire (QframeFeed/KeyDigest
  // excluded, matching the in-process accounting).
  std::size_t control_messages = 0;
  std::size_t control_bytes = 0;
};

/// Alice's endpoint: simulates the quantum channel, feeds Bob his
/// detections, then runs her halves of the dialogue.
class AlicePeer {
 public:
  AlicePeer(QkdLinkConfig config, std::uint64_t seed);

  PeerOutcome run_batch(wire::Transport& io);

  const AuthenticationService& auth() const { return party_.auth; }

 private:
  QkdLinkConfig config_;
  qkd::optics::WeakCoherentLink link_;
  Party party_;
  std::uint64_t next_frame_id_ = 0;
};

/// Bob's endpoint: receives the Qframe feed, then runs his halves of the
/// batch it names.
class BobPeer {
 public:
  BobPeer(QkdLinkConfig config, std::uint64_t seed);

  PeerOutcome run_batch(wire::Transport& io);

  const AuthenticationService& auth() const { return party_.auth; }

 private:
  QkdLinkConfig config_;
  Party party_;
};

}  // namespace qkd::proto
