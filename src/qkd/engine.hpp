// The QKD protocol engine: Fig. 9's stack run end to end.
//
//   Raw Qframes -> Sifting -> Error Correction -> Privacy Amplification
//                -> Authentication -> Distilled bits
//
// A QkdLinkSession owns one simulated weak-coherent link plus both
// protocol endpoints (one Party each, seeded as the two-process peers seed
// theirs). run_batch() pushes one Qframe through the stage pipeline
// (src/qkd/pipeline.hpp), whose halves it interleaves over the two ends of
// one in-memory classical channel, and either yields a distilled key
// block (identical on both sides, by construction verified) or reports why
// the batch was rejected — too much disturbance (eavesdropping alarm),
// entropy exhausted, or residual error detected.
//
// All control traffic is serialized to real wire bytes, carried through the
// Wegman-Carter authentication service, and accounted (message and byte
// counts), so protocol overhead experiments read directly off BatchResult —
// including per-stage wall time and wire bytes (BatchResult::stages).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/keystore/key_pool.hpp"
#include "src/keystore/key_producer.hpp"
#include "src/net/channel_transport.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/optics/link.hpp"
#include "src/qkd/authentication.hpp"
#include "src/qkd/cascade_bbn.hpp"
#include "src/qkd/cascade_classic.hpp"
#include "src/qkd/ec.hpp"
#include "src/qkd/entropy.hpp"
#include "src/qkd/parity_ec.hpp"

namespace qkd::proto {

enum class EcStrategy { kBbnCascade, kClassicCascade, kNaiveParity };

enum class AbortReason {
  kNone = 0,
  kNoSiftedBits,     // link produced nothing usable
  kQberTooHigh,      // sampled error rate above the alarm threshold
  kEcNotConverged,   // error correction hit its round limit
  kVerifyFailed,     // post-correction hash comparison mismatched
  kEntropyExhausted, // estimate says Eve may know everything
  kAuthExhausted,    // no pad bits left to authenticate control traffic
  kChannelLost,      // classical channel dropped traffic past retransmission
};

const char* abort_reason_name(AbortReason reason);

/// Number of distinct AbortReason values (kNone included), for histograms.
inline constexpr std::size_t kAbortReasonCount = 8;

class PipelineStage;  // src/qkd/pipeline.hpp

struct QkdLinkConfig {
  /// Physical-layer calibration: fiber length/loss, mean photon number,
  /// detector efficiency and dark rate, trigger rate. Defaults model the
  /// paper's Sec. 4 operating point (10 km, mu = 0.1, 1 MHz, ~6% QBER).
  qkd::optics::LinkParams link;

  /// Trigger slots per Qframe batch.
  std::size_t frame_slots = 1 << 20;

  /// Fraction of sifted bits sacrificed for the error-rate estimate.
  double sample_fraction = 0.05;

  /// Early abort when the *sampled* QBER exceeds this. The sample is small,
  /// so this gate is set at intercept-resend levels where even a noisy
  /// estimate is unambiguous.
  double early_abort_qber = 0.25;

  /// Abort threshold on the *exact* error rate found by error correction
  /// (the canonical 11 % BB84 alarm point). Unlike the sampled gate this is
  /// measured over every sifted bit, so it does not false-alarm at the 6-8 %
  /// operating point.
  double qber_abort_threshold = 0.11;

  /// Default error correction is classic Cascade: the BBN variant's
  /// bisections run over ~n/2-member subsets and disclose ~log2(n) bits per
  /// error, which at the 6-8 % QBER operating point leaves no distillable
  /// key after the entropy deductions (bench E5 quantifies this — it is the
  /// reproduction's most interesting negative result). The paper's variant
  /// remains fully implemented and selectable.
  EcStrategy ec_strategy = EcStrategy::kClassicCascade;
  /// Tuning for whichever corrector `ec_strategy` selects; the other two
  /// config blocks are carried but unused.
  BbnCascadeConfig bbn_config;
  ClassicCascadeConfig classic_config;
  NaiveParityConfig naive_config;

  /// Bennett by default: the paper observes Slutsky's bound is "overly
  /// conservative for finite-length blocks" — with c = 5 at 6 % QBER it
  /// (correctly per its own terms) refuses to distill (bench E6 shows the
  /// crossover).
  DefenseFunction defense = DefenseFunction::kBennett;

  /// Source model assumed by the entropy estimate: weak-coherent pulses
  /// leak multi-photon information to a PNS attacker; single-photon and
  /// entangled sources do not.
  LinkKind link_kind = LinkKind::kWeakCoherent;

  /// How the multi-photon deduction t_multiphoton is charged: the
  /// worst-case policy counts every transmitted multi-photon pulse, the
  /// kReceivedConditional default counts P[N>=2 | N>=1] over received
  /// pulses only (bench E8 measures how much this undercharges a PNS Eve).
  MultiPhotonPolicy multi_photon_policy =
      MultiPhotonPolicy::kReceivedConditional;

  /// Confidence multiplier c on the combined deviation
  /// c * sqrt(s_def^2 + s_multi^2) subtracted by the entropy estimate;
  /// 5.0 follows the paper's Appendix.
  double confidence = 5.0;

  /// Run the Sec. 6 randomness-test battery on the corrected bits and feed
  /// the resulting shortening measure into the entropy estimate as r.
  bool run_randomness_tests = true;

  /// Extra shrinkage below the entropy estimate (security parameter s:
  /// Eve's expected knowledge of the distilled key <= 2^-s bits).
  std::size_t pa_margin_bits = 30;

  /// Distilled bits per accepted batch diverted to authentication pads.
  std::size_t auth_replenish_bits = 192;

  /// 32-bit tags keep the per-message pad cost below the replenishment
  /// budget; 2^-32 forgery probability per control message is ample since a
  /// single forged message only aborts one batch.
  AuthenticationService::Config auth{
      .tag_bits = 32, .max_message_bits = 1 << 17, .low_water_bits = 1024};

  /// Prepositioned pad bits beyond the structural minimum the auth service
  /// requires. This is the one-time-pad runway before the first replenishment
  /// lands; 0 exhausts it within the first batch (the kAuthExhausted DoS).
  std::size_t preposition_extra_bits = 8192;
};

/// The link's own error record: the exact error counts of its recent
/// verified batches, each weighted kDecay times the batch after it. The
/// paper's corrector is "adaptive" to "the historical average" (Sec. 5);
/// here the record sizes classic Cascade's first pass, pooled with the
/// batch's own sample, so that a sample that undershoots the link's error
/// rate no longer buys blocks too large to correct cleanly.
class ErrorHistory {
 public:
  /// Weight of a batch relative to the one after it (~10 batches' memory).
  static constexpr double kDecay = 0.9;
  /// A sample this unlikely under the recorded rate, in the tail on its
  /// side, marks a step in the link's error rate: the record is dropped
  /// and the sample alone sizes the batch.
  static constexpr double kStepTail = 1e-3;

  /// Adds one verified batch: `errors` exact errors in `bits` bits.
  void record(std::size_t errors, std::size_t bits);

  /// The error rate to size a batch from, given its sample of
  /// `sample_errors` in `sample_bits`: (recorded + sampled errors) /
  /// (recorded + sampled bits), or the sample alone when nothing is
  /// recorded or the sample is implausible under the record (which is then
  /// cleared). 0 when there is neither.
  double estimate(std::size_t sample_errors, std::size_t sample_bits);

  double errors() const { return errors_; }
  double bits() const { return bits_; }
  bool empty() const { return bits_ == 0.0; }

 private:
  double errors_ = 0.0;
  double bits_ = 0.0;
};

/// What one endpoint carries from batch to batch: the seed both endpoints
/// share (standing in for the couriered pre-QKD secret), from which each
/// batch keys its own DRBGs (src/qkd/pipeline.hpp), its authentication
/// service, and (Bob's side, which sizes the correction) the link's error
/// record.
struct Party {
  Party(const QkdLinkConfig& config, std::uint64_t seed, bool is_alice);

  std::uint64_t seed;
  AuthenticationService auth;
  ErrorHistory errors;
};

/// Wall-time and wire traffic attributed to one pipeline stage of one batch.
struct StageStats {
  std::string name;                  // PipelineStage::name()
  double wall_s = 0.0;               // host wall-clock spent in the stage
  std::size_t control_messages = 0;  // wire messages shipped by the stage
  std::size_t control_bytes = 0;     // wire bytes shipped by the stage
};

struct BatchResult {
  // Volumes at each pipeline stage.
  std::size_t pulses = 0;
  std::size_t detections = 0;
  std::size_t sifted_bits = 0;
  std::size_t sampled_bits = 0;      // sacrificed for error estimation
  std::size_t errors_corrected = 0;
  std::size_t disclosed_bits = 0;    // EC parity disclosures (d)
  std::size_t distilled_bits = 0;    // final key bits delivered
  // Quality measures.
  double qber_sampled = 0.0;
  double qber_actual = 0.0;          // ground truth over all sifted bits
  // Protocol overhead. Message/byte counts are MEASURED from the encoded
  // frames the batch actually put on the public channel (retransmissions
  // included); wire_stall_s is the wall-clock the lockstep dialogue spent
  // waiting on the channel's one-way latency, already folded into
  // duration_s.
  std::size_t control_messages = 0;
  std::size_t control_bytes = 0;
  double wire_stall_s = 0.0;
  // Ground truth: how much Eve actually knew about the sifted bits.
  std::size_t eve_known_sifted = 0;
  // Outcome.
  bool accepted = false;
  AbortReason reason = AbortReason::kNone;
  qkd::BitVector key;                // the distilled block (both sides equal)
  double duration_s = 0.0;           // wall-clock at the configured trigger rate
  // Host wall-clock spent generating the Qframe (the physical layer), which
  // runs before the first stage.
  double frame_wall_s = 0.0;
  // Per-stage decomposition, in execution order; an aborted batch records
  // only the stages that ran (the last entry is the one that aborted).
  std::vector<StageStats> stages;
};

/// Cumulative accounting across batches.
struct SessionTotals {
  std::size_t batches = 0;
  std::size_t accepted_batches = 0;
  std::size_t pulses = 0;
  std::size_t sifted_bits = 0;
  std::size_t distilled_bits = 0;
  double duration_s = 0.0;
  /// Outcome histogram, indexed by AbortReason. by_reason[kNone] counts
  /// accepted batches; the full histogram sums to `batches`.
  std::array<std::size_t, kAbortReasonCount> by_reason{};

  std::size_t aborted(AbortReason reason) const {
    return by_reason[static_cast<std::size_t>(reason)];
  }

  // Named views over the histogram for the common operator questions.
  std::size_t aborted_qber() const {
    return aborted(AbortReason::kQberTooHigh);
  }
  std::size_t aborted_entropy() const {
    return aborted(AbortReason::kEntropyExhausted);
  }
  /// Correction-integrity failures: EC round-limit plus hash mismatch.
  std::size_t aborted_verify() const {
    return aborted(AbortReason::kEcNotConverged) +
           aborted(AbortReason::kVerifyFailed);
  }

  double distilled_rate_bps() const {
    return duration_s > 0.0 ? static_cast<double>(distilled_bits) / duration_s
                            : 0.0;
  }
};

/// What distill() delivered and — when it missed the target — why: the
/// per-batch abort-reason histogram tells an operator whether the link is
/// starved by eavesdropping, entropy exhaustion, pad exhaustion, or loss.
struct DistillOutcome {
  qkd::BitVector key;          // concatenated accepted-batch key material
  bool reached_target = false; // key.size() met the request before the cap
  std::size_t batches_run = 0;
  std::array<std::size_t, kAbortReasonCount> by_reason{};

  std::size_t aborted(AbortReason reason) const {
    return by_reason[static_cast<std::size_t>(reason)];
  }
};

/// One link session doubles as a single-stream keystore::KeyProducer: the
/// producer paths (advance / produce_batches) deliver accepted batches into
/// attached KeySupply sinks — or, with no sinks, into the session-owned
/// supply — so consumers never touch BatchResult directly.
class QkdLinkSession : public qkd::keystore::KeyProducer {
 public:
  QkdLinkSession(QkdLinkConfig config, std::uint64_t seed);
  ~QkdLinkSession() override;

  /// Runs one Qframe through the stage pipeline. `attack` taps the quantum
  /// channel.
  BatchResult run_batch(qkd::optics::Attack* attack = nullptr);

  /// Runs batches until `bits` distilled bits accumulate or `max_batches`
  /// pass; reports the key material plus the abort-reason histogram.
  DistillOutcome distill(std::size_t bits, std::size_t max_batches = 64,
                         qkd::optics::Attack* attack = nullptr);

  /// Convenience wrapper around distill() returning just the key.
  qkd::BitVector distill_bits(std::size_t bits, std::size_t max_batches = 64,
                              qkd::optics::Attack* attack = nullptr);

  /// The stages run_batch executes, in order (default_pipeline() unless
  /// replaced). Stages may be reordered, swapped, or instrumented; the
  /// caller owns the consequences of non-protocol orders.
  const std::vector<std::unique_ptr<PipelineStage>>& pipeline() const {
    return pipeline_;
  }
  void set_pipeline(std::vector<std::unique_ptr<PipelineStage>> stages);

  const SessionTotals& totals() const { return totals_; }
  const QkdLinkConfig& config() const { return config_; }
  const qkd::optics::WeakCoherentLink& link() const { return link_; }
  const AuthenticationService& alice_auth() const { return alice_.auth; }
  const AuthenticationService& bob_auth() const { return bob_.auth; }
  /// Bob's record of the link's verified error counts.
  const ErrorHistory& error_history() const { return bob_.errors; }

  /// The public channel every control frame of this session crosses.
  /// Install impairments or ClassicalConditions here to attack the framed
  /// byte stream (the scenario engine's classical-channel actions do).
  qkd::net::PublicChannel& channel() { return channel_; }
  const qkd::net::PublicChannel& channel() const { return channel_; }

  /// Installs (or, with nullptr, removes) a tracer: every run_batch then
  /// records a "qkd.batch" span with a "qkd.frame" child for the physical
  /// layer and one "qkd.<stage>" child per pipeline stage, into `cell` (the
  /// session's lane in a LinkKeyService pool).
  void set_tracer(obs::Tracer* tracer, std::size_t cell = 0) {
    tracer_ = tracer;
    trace_cell_ = cell;
  }

  /// Registers a collector exposing SessionTotals plus cumulative Qframe
  /// and per-stage wall time under `prefix`. The session must outlive the
  /// registry's snapshots.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

  // ---- keystore::KeyProducer ----------------------------------------------
  std::size_t supply_count() const override { return 1; }
  qkd::keystore::KeySupply& supply(std::size_t index = 0) override;
  const qkd::keystore::KeySupply& supply(std::size_t index = 0) const override;
  void attach_sink(std::size_t index, qkd::keystore::KeySupply& sink) override;

  /// Runs however many whole Qframes fit into `dt_seconds` of link time
  /// (fractional frame time carries to the next call), delivering accepted
  /// key to the sinks.
  void advance(double dt_seconds) override;

  /// Runs `count` batches against the installed attack, delivering accepted
  /// key to the sinks (or the session-owned supply).
  void produce_batches(std::size_t count);

  /// Installs (or clears, with nullptr) an eavesdropper on the quantum
  /// channel, applied by the producer paths; run_batch callers pass theirs
  /// explicitly.
  void set_attack(std::unique_ptr<qkd::optics::Attack> attack);
  qkd::optics::Attack* attack() { return attack_.get(); }

  /// The session-owned supply as its concrete type (labelling, stats); the
  /// KeyProducer interface exposes it as a KeySupply.
  qkd::keystore::KeyPool& supply_pool() { return supply_; }

 private:
  /// Deposits one accepted batch into the sinks (or the owned supply).
  void deliver(const qkd::BitVector& key);

  QkdLinkConfig config_;
  qkd::optics::WeakCoherentLink link_;
  Party alice_;
  Party bob_;
  qkd::net::PublicChannel channel_;
  qkd::net::ChannelTransport alice_wire_;
  qkd::net::ChannelTransport bob_wire_;
  std::vector<std::unique_ptr<PipelineStage>> pipeline_;
  SessionTotals totals_;
  /// Cumulative Qframe wall seconds, and per-stage wall seconds / control
  /// bytes indexed like pipeline_ (reset by set_pipeline): the registry's
  /// view of the stage table without touching BatchResult.
  double frame_wall_s_ = 0.0;
  std::vector<double> stage_wall_s_;
  std::vector<std::size_t> stage_bytes_;
  obs::Tracer* tracer_ = nullptr;
  std::size_t trace_cell_ = 0;
  std::uint64_t next_frame_id_ = 0;
  qkd::keystore::KeyPool supply_;
  std::vector<qkd::keystore::KeySupply*> sinks_;
  std::unique_ptr<qkd::optics::Attack> attack_;
  double frame_debt_s_ = 0.0;  // simulated time owed to advance()
};

}  // namespace qkd::proto
