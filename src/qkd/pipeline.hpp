// The stage-decomposed QKD protocol pipeline.
//
// Each of the seven Fig. 9 stages is written once, as an Alice half and a
// Bob half (StageHalves): coroutines that touch only their own side's
// state (Side: config, batch DRBG, authentication service, bits, counts)
// and talk only through frames on that side's DialogueWire
// (src/qkd/wire_link.hpp). The in-process QkdLinkSession runs a stage by
// interleaving its two halves over the two ends of one in-memory channel;
// the two-process peers (src/qkd/peer.hpp) each run their own halves, in
// order, over a socket. Same halves, same frames, same DRBG draws. The
// sample positions are the one draw both sides make; Alice alone draws the
// PA parameters she announces, and Bob his Cascade seed.
//
// Gilbert & Hamrick (quant-ph/0106043) argue that the computational load
// and rate of *each* distillation stage must be measurable independently
// to assess practicality — so QkdLinkSession times every stage and
// attributes its wire traffic separately (BatchResult::stages), and
// stages can be reordered, swapped, or wrapped via set_pipeline().
//
// Default order (paper Fig. 9, left to right):
//   sifting -> sampling -> error-correction -> verify -> entropy
//     -> privacy-amplification -> auth-replenish
//
// Sifting first opens the batch's pads (AuthenticationService::open_batch);
// auth-replenish last exchanges the two transcript tags, and once the
// batch is accepted each side repays its pads from the key
// (take_pad_share).
//
// A stage returns AbortReason::kNone to pass control to the next stage, or
// the reason the batch must be rejected; the runner stops at the first
// abort. The physical layer (one Qframe through the optics) runs before the
// pipeline and fills BatchContext::frame.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/crypto/drbg.hpp"
#include "src/qkd/engine.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {

/// The DRBG of batch `frame_id` for a party holding `seed`: both sides key
/// the same stream, whatever earlier batches drew.
qkd::crypto::Drbg batch_drbg(std::uint64_t seed, std::uint64_t frame_id);

/// One side's state for one batch: all that its stage halves read and
/// write. Nothing in it belongs to the other side.
struct Side {
  Side(const QkdLinkConfig& config, Party& party, wire::Transport& io,
       bool is_alice, const qkd::optics::FrameResult& frame,
       std::uint64_t frame_id)
      : config(config),
        party(party),
        wire(io, /*announces=*/is_alice),
        frame(frame),
        frame_id(frame_id),
        drbg(batch_drbg(party.seed, frame_id)) {}

  const QkdLinkConfig& config;
  Party& party;
  DialogueWire wire;
  // Alice reads her half of each click, Bob his.
  const qkd::optics::FrameResult& frame;
  std::uint64_t frame_id;
  qkd::crypto::Drbg drbg;

  // Sifting fills the bits and the slots they came from; sampling removes
  // the sample; Bob's error correction fixes his copy in place; privacy
  // amplification turns them into the key, which auth-replenish vouches
  // for and take_pad_share() cuts the pads' share from.
  qkd::BitVector bits;
  std::vector<std::uint32_t> sifted_slots;
  double usable_bits = 0.0;  // Alice: entropy estimate net of the margin
  qkd::BitVector key;

  // What this side saw, for BatchResult and PeerOutcome.
  std::size_t sampled_bits = 0;
  std::size_t sample_errors = 0;
  double qber_sampled = 0.0;
  std::size_t errors_corrected = 0;  // Alice: as Bob's summary reports
  std::size_t disclosed_bits = 0;    // Alice: parity bits she answered
};

/// A stage as its two halves.
struct StageHalves {
  const char* name;
  StageHalf (*alice)(Side&);
  StageHalf (*bob)(Side&);
};

/// The Fig. 9 dialogue: the seven stages in protocol order.
std::span<const StageHalves> fig9_dialogue();

/// Per-frame working state of the in-process session, threaded through
/// the stages.
struct BatchContext {
  const qkd::optics::FrameResult& frame;
  // Accounting sink: each stage brings control_messages/control_bytes up
  // to date; the session fills in the rest once the stages are done.
  BatchResult& result;
  Side& alice;
  Side& bob;
};

/// One stage of the distillation pipeline.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;

  /// Stable identifier used in BatchResult::stages and the benches.
  virtual const char* name() const = 0;

  /// Runs the stage. Returning anything but kNone rejects the batch.
  virtual AbortReason run(BatchContext& ctx) = 0;
};

/// The default pipeline: the stages of fig9_dialogue(), each run by
/// interleaving its halves.
std::vector<std::unique_ptr<PipelineStage>> default_pipeline();

/// The error-rate sample positions among `n` sifted bits, as a mask with
/// `sample_target` bits set. Both sides draw it first from their batch
/// DRBGs, so the positions never cross the wire. It is a partial
/// Fisher-Yates shuffle over indices — O(n) regardless of the fraction —
/// whose `sample_target` 64-bit values come from one Drbg::generate call.
qkd::BitVector draw_sample_mask(std::size_t n, std::size_t sample_target,
                                qkd::crypto::Drbg& drbg);

/// Appends the bits of `bits` under `mask` to `sampled` and the rest to
/// `kept`, each in position order.
void split_by_mask(const qkd::BitVector& bits, const qkd::BitVector& mask,
                   qkd::BitVector& sampled, qkd::BitVector& kept);

/// SHA-1 of the bits' bytes: the verify stage's hash, and the peers'
/// closing KeyDigest.
Bytes digest_bytes(const qkd::BitVector& bits);

/// An accepted batch's repayment: cuts what the side's pads are owed (all
/// of the key, if it is shorter) off the end of its key and returns it, to
/// be replenish()ed once the peer is known to keep the same key. Both
/// sides owe the same, so they cut the same bits.
qkd::BitVector take_pad_share(Side& s);

}  // namespace qkd::proto
