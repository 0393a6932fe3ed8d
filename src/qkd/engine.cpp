#include "src/qkd/engine.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/optics/attacks.hpp"
#include "src/qkd/pipeline.hpp"

namespace qkd::proto {
namespace {

/// Prepositioned secret both endpoints share before QKD begins ("some means
/// of distributing these keys before QKD itself begins, e.g., by human
/// courier"). In the simulation it is derived from the session seed.
qkd::BitVector preposition_secret(const QkdLinkConfig& config,
                                  std::uint64_t seed) {
  qkd::crypto::Drbg courier(seed ^ 0xC0931E5ULL);
  return courier.generate_bits(
      AuthenticationService::required_secret_bits(config.auth) +
      config.preposition_extra_bits);
}

/// Ground truth the protocol never sees: the error rate over the sifted
/// bits, and how many of them Eve knew.
void record_ground_truth(const qkd::optics::FrameResult& frame,
                         const std::vector<std::uint32_t>& sifted_slots,
                         BatchResult& result) {
  if (sifted_slots.empty()) return;
  // Every sifted slot is a click: walk the clicks in lockstep with the
  // sifted slots, counting an error where they meet, with no branch on
  // which clicks were kept.
  const std::size_t m = sifted_slots.size();
  std::size_t errors = 0;
  std::size_t j = 0;
  for (const qkd::optics::Click& click : frame.clicks) {
    const bool hit = j < m && sifted_slots[j] == click.slot;
    errors += hit & (click.alice_value != click.bob_bit);
    j += hit;
  }
  auto known = frame.eve.known.begin();
  for (std::uint32_t slot : sifted_slots) {
    while (known != frame.eve.known.end() && *known < slot) ++known;
    if (known != frame.eve.known.end() && *known == slot)
      ++result.eve_known_sifted;
  }
  result.qber_actual = static_cast<double>(errors) /
                       static_cast<double>(sifted_slots.size());
}

/// ln(n!). lgamma_r, not std::lgamma: std::lgamma writes the global
/// `signgam`, a data race when links distill on several threads.
double log_factorial(double n) {
  int sign = 0;
  return ::lgamma_r(n + 1.0, &sign);
}

/// Whether the tail of Binomial(m, p) on k's side of the mean, P[X >= k]
/// or P[X <= k], holds less than `alpha`. It sums the tail's terms
/// outward from k and stops as soon as the sum reaches alpha or the terms
/// no longer matter.
bool binomial_tail_below(std::size_t k, std::size_t m, double p,
                         double alpha) {
  if (p <= 0.0) return k > 0;
  if (p >= 1.0) return k < m;
  const bool upper = static_cast<double>(k) >= p * static_cast<double>(m);
  const double log_p = std::log(p), log_q = std::log1p(-p);
  const double log_m = log_factorial(static_cast<double>(m));
  double sum = 0.0;
  for (std::size_t j = k;; upper ? ++j : --j) {
    const auto jd = static_cast<double>(j);
    const double term =
        std::exp(log_m - log_factorial(jd) -
                 log_factorial(static_cast<double>(m - j)) + jd * log_p +
                 static_cast<double>(m - j) * log_q);
    sum += term;
    if (sum >= alpha) return false;
    if (term < alpha * 1e-9 || (upper ? j == m : j == 0)) return true;
  }
}

}  // namespace

void ErrorHistory::record(std::size_t errors, std::size_t bits) {
  errors_ = kDecay * errors_ + static_cast<double>(errors);
  bits_ = kDecay * bits_ + static_cast<double>(bits);
}

double ErrorHistory::estimate(std::size_t sample_errors,
                              std::size_t sample_bits) {
  // The sample is judged against what the record alone predicts.
  if (!empty() && sample_bits > 0 &&
      binomial_tail_below(sample_errors, sample_bits, errors_ / bits_,
                          kStepTail))
    *this = {};
  const double bits = bits_ + static_cast<double>(sample_bits);
  return bits > 0.0 ? (errors_ + static_cast<double>(sample_errors)) / bits
                    : 0.0;
}

Party::Party(const QkdLinkConfig& config, std::uint64_t seed, bool is_alice)
    : seed(seed),
      auth(config.auth, preposition_secret(config, seed),
           /*is_initiator=*/is_alice) {}

const char* abort_reason_name(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone:
      return "none";
    case AbortReason::kNoSiftedBits:
      return "no-sifted-bits";
    case AbortReason::kQberTooHigh:
      return "qber-too-high";
    case AbortReason::kEcNotConverged:
      return "ec-not-converged";
    case AbortReason::kVerifyFailed:
      return "verify-failed";
    case AbortReason::kEntropyExhausted:
      return "entropy-exhausted";
    case AbortReason::kAuthExhausted:
      return "auth-exhausted";
    case AbortReason::kChannelLost:
      return "channel-lost";
  }
  return "?";
}

QkdLinkSession::QkdLinkSession(QkdLinkConfig config, std::uint64_t seed)
    : config_(config),
      link_(config.link, seed),
      alice_(config, seed, /*is_alice=*/true),
      bob_(config, seed, /*is_alice=*/false),
      alice_wire_(channel_, qkd::net::ChannelTransport::Side::kA),
      bob_wire_(channel_, qkd::net::ChannelTransport::Side::kB),
      pipeline_(default_pipeline()),
      supply_("qkd-link") {
  if (config_.sample_fraction < 0.0 || config_.sample_fraction >= 1.0)
    throw std::invalid_argument("QkdLinkSession: bad sample fraction");
  stage_wall_s_.assign(pipeline_.size(), 0.0);
  stage_bytes_.assign(pipeline_.size(), 0);
}

QkdLinkSession::~QkdLinkSession() = default;

void QkdLinkSession::set_pipeline(
    std::vector<std::unique_ptr<PipelineStage>> stages) {
  pipeline_ = std::move(stages);
  stage_wall_s_.assign(pipeline_.size(), 0.0);
  stage_bytes_.assign(pipeline_.size(), 0);
}

void QkdLinkSession::bind_metrics(obs::MetricsRegistry& registry,
                                  std::string prefix) {
  registry.add_collector([this, prefix = std::move(prefix)](
                             obs::MetricsRegistry::Collect& out) {
    out.counter(prefix + "_batches", totals_.batches);
    out.counter(prefix + "_accepted_batches", totals_.accepted_batches);
    out.counter(prefix + "_pulses", totals_.pulses);
    out.counter(prefix + "_sifted_bits", totals_.sifted_bits);
    out.counter(prefix + "_distilled_bits", totals_.distilled_bits);
    // The paper's eavesdrop alarm in counter form: batches the protocol
    // itself abandoned for excessive QBER.
    out.counter(prefix + "_aborted_qber", totals_.aborted_qber());
    // The authentication pads: the runway left (both ends hold the same)
    // and all the pad spent, repaid or not. A runway that keeps falling is
    // a link whose batches do not pay their way (rules::pad_runway_draining).
    out.gauge(prefix + "_auth_pad_bits",
              static_cast<double>(alice_.auth.pad_bits_available()));
    out.counter(prefix + "_auth_pad_spent_bits",
                alice_.auth.pad_bits_consumed());
    out.gauge(prefix + "_link_seconds", totals_.duration_s);
    out.counter(prefix + "_frame_wall_us",
                static_cast<std::uint64_t>(frame_wall_s_ * 1e6));
    for (std::size_t i = 0; i < pipeline_.size() && i < stage_wall_s_.size();
         ++i) {
      const std::string stage = prefix + "_stage_" + pipeline_[i]->name();
      out.counter(stage + "_wall_us",
                  static_cast<std::uint64_t>(stage_wall_s_[i] * 1e6));
      out.counter(stage + "_control_bytes", stage_bytes_[i]);
    }
  });
}

BatchResult QkdLinkSession::run_batch(qkd::optics::Attack* attack) {
  BatchResult result;
  ++totals_.batches;

  // The batch span roots its own trace (one per Qframe); the frame and each
  // stage are children. A null/disabled tracer costs one branch per batch
  // plus one per stage — the span construction is skipped entirely.
  obs::ScopedSpan batch_span(tracer_, "qkd.batch", {}, trace_cell_);

  // ---- Physical layer: one Qframe of raw symbols. -------------------------
  std::optional<obs::ScopedSpan> frame_span;
  if (batch_span.recording())
    frame_span.emplace(tracer_, "qkd.frame", batch_span.context(),
                       trace_cell_);
  const auto frame_start = std::chrono::steady_clock::now();
  const auto frame = link_.run_frame(config_.frame_slots, attack);
  result.frame_wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - frame_start)
                            .count();
  frame_wall_s_ += result.frame_wall_s;
  result.pulses = config_.frame_slots;
  result.detections = frame.clicks.size();
  result.duration_s = link_.frame_duration_s(config_.frame_slots);
  totals_.pulses += result.pulses;
  if (frame_span.has_value()) {
    frame_span->attr("detections", std::to_string(result.detections));
    frame_span->finish();
  }

  // ---- Protocol stack: each stage's two halves, interleaved. --------------
  // Frames a lost dialogue left behind (an unread abort notice) are stale.
  while (alice_wire_.recv_frame().has_value()) {
  }
  while (bob_wire_.recv_frame().has_value()) {
  }
  const std::uint64_t frame_id = next_frame_id_++;
  Side alice(config_, alice_, alice_wire_, /*is_alice=*/true, frame, frame_id);
  Side bob(config_, bob_, bob_wire_, /*is_alice=*/false, frame, frame_id);
  DialogueWire::pair(alice.wire, bob.wire);
  BatchContext ctx{.frame = frame, .result = result, .alice = alice,
                   .bob = bob};
  AbortReason reason = AbortReason::kNone;
  result.stages.reserve(pipeline_.size());
  for (std::size_t s = 0; s < pipeline_.size(); ++s) {
    const auto& stage = pipeline_[s];
    const std::size_t messages_before = result.control_messages;
    const std::size_t bytes_before = result.control_bytes;
    std::optional<obs::ScopedSpan> stage_span;
    if (batch_span.recording())
      stage_span.emplace(tracer_, std::string("qkd.") + stage->name(),
                         batch_span.context(), trace_cell_);
    const auto start = std::chrono::steady_clock::now();
    reason = stage->run(ctx);
    const auto stop = std::chrono::steady_clock::now();
    StageStats& stats = result.stages.emplace_back();
    stats.name = stage->name();
    stats.wall_s = std::chrono::duration<double>(stop - start).count();
    stats.control_messages = result.control_messages - messages_before;
    stats.control_bytes = result.control_bytes - bytes_before;
    if (s < stage_wall_s_.size()) {
      stage_wall_s_[s] += stats.wall_s;
      stage_bytes_[s] += stats.control_bytes;
    }
    if (stage_span.has_value()) {
      stage_span->attr("control_messages",
                       std::to_string(stats.control_messages));
      stage_span->attr("control_bytes", std::to_string(stats.control_bytes));
      stage_span->finish();
    }
    if (reason != AbortReason::kNone) break;
  }

  // Each count comes from the side that produced it: Bob corrected the
  // errors, Alice answered the parity questions.
  result.sifted_bits = alice.sifted_slots.size();
  result.sampled_bits = alice.sampled_bits;
  result.qber_sampled = alice.qber_sampled;
  result.errors_corrected = bob.errors_corrected;
  result.disclosed_bits = alice.disclosed_bits;
  record_ground_truth(frame, alice.sifted_slots, result);
  if (reason == AbortReason::kNone) {
    // Both tags passed: each side repays its pads from the key's end.
    alice_.auth.replenish(take_pad_share(alice));
    bob_.auth.replenish(take_pad_share(bob));
    result.key = std::move(alice.key);
    result.distilled_bits = result.key.size();
  }

  // Lockstep dialogues pay the channel's one-way latency once per control
  // message; a latency spike therefore stalls distillation (lower key rate)
  // without deadlocking it.
  result.wire_stall_s = qkd::sim_to_seconds(channel_.conditions().latency) *
                        static_cast<double>(result.control_messages);
  result.duration_s += result.wire_stall_s;
  totals_.duration_s += result.duration_s;

  // ---- Outcome accounting. ------------------------------------------------
  if (batch_span.recording()) {
    batch_span.attr("accepted",
                    reason == AbortReason::kNone ? "true" : "false");
    batch_span.attr("reason", abort_reason_name(reason));
    batch_span.attr("sifted_bits", std::to_string(result.sifted_bits));
    batch_span.attr("distilled_bits", std::to_string(result.distilled_bits));
  }
  result.reason = reason;
  result.accepted = reason == AbortReason::kNone;
  totals_.sifted_bits += result.sifted_bits;
  totals_.distilled_bits += result.distilled_bits;
  ++totals_.by_reason[static_cast<std::size_t>(reason)];
  if (result.accepted) ++totals_.accepted_batches;
  return result;
}

DistillOutcome QkdLinkSession::distill(std::size_t bits,
                                       std::size_t max_batches,
                                       qkd::optics::Attack* attack) {
  DistillOutcome outcome;
  for (std::size_t i = 0; i < max_batches && outcome.key.size() < bits; ++i) {
    BatchResult batch = run_batch(attack);
    ++outcome.batches_run;
    ++outcome.by_reason[static_cast<std::size_t>(batch.reason)];
    if (batch.accepted) outcome.key.append(batch.key);
  }
  outcome.reached_target = outcome.key.size() >= bits;
  if (outcome.key.size() > bits) outcome.key.resize(bits);
  return outcome;
}

qkd::BitVector QkdLinkSession::distill_bits(std::size_t bits,
                                            std::size_t max_batches,
                                            qkd::optics::Attack* attack) {
  return distill(bits, max_batches, attack).key;
}

qkd::keystore::KeySupply& QkdLinkSession::supply(std::size_t index) {
  if (index != 0)
    throw std::out_of_range("QkdLinkSession: single-stream producer");
  return supply_;
}

const qkd::keystore::KeySupply& QkdLinkSession::supply(
    std::size_t index) const {
  if (index != 0)
    throw std::out_of_range("QkdLinkSession: single-stream producer");
  return supply_;
}

void QkdLinkSession::attach_sink(std::size_t index,
                                 qkd::keystore::KeySupply& sink) {
  if (index != 0)
    throw std::out_of_range("QkdLinkSession: single-stream producer");
  sinks_.push_back(&sink);
}

void QkdLinkSession::set_attack(std::unique_ptr<qkd::optics::Attack> attack) {
  attack_ = std::move(attack);
}

void QkdLinkSession::deliver(const qkd::BitVector& key) {
  if (key.empty()) return;
  if (sinks_.empty()) {
    supply_.deposit(key);
    return;
  }
  for (qkd::keystore::KeySupply* sink : sinks_) sink->deposit(key);
}

void QkdLinkSession::produce_batches(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const BatchResult batch = run_batch(attack_.get());
    if (batch.accepted) deliver(batch.key);
  }
}

void QkdLinkSession::advance(double dt_seconds) {
  if (dt_seconds <= 0.0) return;
  const double frame_s = link_.frame_duration_s(config_.frame_slots);
  frame_debt_s_ += dt_seconds;
  const auto batches = static_cast<std::size_t>(frame_debt_s_ / frame_s);
  frame_debt_s_ -= static_cast<double>(batches) * frame_s;
  produce_batches(batches);
}

}  // namespace qkd::proto
