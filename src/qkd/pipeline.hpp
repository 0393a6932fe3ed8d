// The stage-decomposed QKD protocol pipeline.
//
// run_batch() used to be one monolith; it is now an ordered run of
// PipelineStage objects sharing a BatchContext. Gilbert & Hamrick
// (quant-ph/0106043) argue that the computational load and rate of *each*
// distillation stage must be measurable independently to assess
// practicality — so every stage is timed and its wire traffic attributed
// separately (BatchResult::stages), and stages can be reordered, swapped,
// or replaced wholesale via QkdLinkSession::set_pipeline().
//
// Default order (paper Fig. 9, left to right):
//   SiftingStage -> SamplingStage -> ErrorCorrectionStage -> VerifyStage
//     -> EntropyStage -> PrivacyAmplificationStage -> AuthReplenishStage
//
// A stage returns AbortReason::kNone to pass control to the next stage, or
// the reason the batch must be rejected; the runner stops at the first
// abort. The physical layer (one Qframe through the optics) runs before the
// pipeline and fills BatchContext::frame.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/qkd/engine.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace qkd::proto {

/// Outcome of shipping one control message end to end.
enum class ShipStatus {
  kOk,             // delivered and (where applicable) verified
  kAuthExhausted,  // no pad bits left to protect it
  kChannelLost,    // retransmission gave up on the classical channel
};

/// Per-frame working state threaded through the stages. Stages communicate
/// exclusively through this object: each consumes fields written by its
/// predecessors and writes its own outputs (plus accounting into `result`).
struct BatchContext {
  // Fixed for the batch (owned by the session).
  const QkdLinkConfig& config;
  qkd::crypto::Drbg& drbg;
  AuthenticationService& alice_auth;
  AuthenticationService& bob_auth;
  // Each side's end of the classical channel (Alice = side A). The
  // in-memory session hands in two ChannelTransports over one
  // PublicChannel; the same dialogue runs unchanged over TCP sockets in
  // the two-process peers.
  wire::Transport& alice_wire;
  wire::Transport& bob_wire;
  const qkd::optics::FrameResult& frame;
  std::uint64_t frame_id = 0;

  // Evolving key material. Sifting fills the bit strings; sampling shrinks
  // them; error correction mutates bob_bits in place; privacy amplification
  // consumes them into alice_key/bob_key.
  qkd::BitVector alice_bits;
  qkd::BitVector bob_bits;

  // Entropy-stage output: distillable bits net of the PA margin.
  double usable_bits = 0.0;

  // Privacy-amplification outputs (equal by construction after verify).
  qkd::BitVector alice_key;
  qkd::BitVector bob_key;

  // Accounting sink; also where the final key lands.
  BatchResult& result;

  /// Ships one typed packet from one side to the other as a real encoded
  /// frame over the transports, Wegman-Carter-protected (the packet's
  /// encoding is what gets authenticated), retransmitting through loss.
  /// Counts every frame actually put on the wire into `result`.
  template <typename Packet>
  ShipStatus ship(bool from_alice, const Packet& packet) {
    return ship_frame(from_alice, Packet::kType, packet.encode(),
                      /*authenticated=*/true);
  }

  /// The transport-level primitive behind ship(); `authenticated=false`
  /// frames travel bare (the parity dialogue, the abort notice).
  ShipStatus ship_frame(bool from_alice, wire::PacketType type,
                        const Bytes& packet_payload, bool authenticated);
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

/// Bob announces detections; Alice replies with the compatible-basis
/// subset; both sides keep the sifted bits (Sec. 5).
class SiftingStage final : public PipelineStage {
 public:
  const char* name() const override { return "sifting"; }
  AbortReason run(BatchContext& ctx) override;
};

/// How many of `n` sifted bits the error-rate sample sacrifices.
std::size_t sample_target_for(const QkdLinkConfig& config, std::size_t n);

/// The error-rate sample positions among `n` sifted bits, as a mask with
/// `sample_target` bits set. Both sides draw it from their DRBG lockstep,
/// so the positions never cross the wire; the in-process stage and the
/// two-process peers call this one draw. It is a partial Fisher-Yates
/// shuffle over indices — O(n) regardless of the fraction — whose
/// `sample_target` 64-bit values come from one Drbg::generate call.
qkd::BitVector draw_sample_mask(std::size_t n, std::size_t sample_target,
                                qkd::crypto::Drbg& drbg);

/// Appends the bits of `bits` under `mask` to `sampled` and the rest to
/// `kept`, each in position order.
void split_by_mask(const qkd::BitVector& bits, const qkd::BitVector& mask,
                   qkd::BitVector& sampled, qkd::BitVector& kept);

/// Sacrifices a random `sample_fraction` of the sifted bits to estimate the
/// error rate in the clear; early-aborts at intercept-resend QBER levels.
class SamplingStage final : public PipelineStage {
 public:
  const char* name() const override { return "sampling"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Bob drives the configured corrector against Alice's parity oracle.
class ErrorCorrectionStage final : public PipelineStage {
 public:
  const char* name() const override { return "error-correction"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Exchanges a hash of the corrected strings (IKE "has no mechanisms for
/// noticing" key disagreement, so the QKD stack must catch residual errors
/// here), then applies the canonical 11 % alarm on the exact error rate.
class VerifyStage final : public PipelineStage {
 public:
  const char* name() const override { return "verify"; }
  AbortReason run(BatchContext& ctx) override;
};

/// The Sec. 6 entropy estimate: how many bits survive Eve's knowledge.
class EntropyStage final : public PipelineStage {
 public:
  const char* name() const override { return "entropy"; }
  AbortReason run(BatchContext& ctx) override;
};

/// GF(2^n) linear-hash privacy amplification, chunked to the field-width
/// ladder (Sec. 5).
class PrivacyAmplificationStage final : public PipelineStage {
 public:
  const char* name() const override { return "privacy-amplification"; }
  AbortReason run(BatchContext& ctx) override;
};

/// Diverts the configured slice of distilled key into both endpoints'
/// Wegman-Carter pad pools and delivers the remainder (Sec. 5).
class AuthReplenishStage final : public PipelineStage {
 public:
  const char* name() const override { return "auth-replenish"; }
  AbortReason run(BatchContext& ctx) override;
};

/// The Fig. 9 default: all seven stages in protocol order.
std::vector<std::unique_ptr<PipelineStage>> default_pipeline();

}  // namespace qkd::proto
