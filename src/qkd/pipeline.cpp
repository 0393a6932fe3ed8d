#include "src/qkd/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/crypto/sha1.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/randomness.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// Retransmission budget per authenticated control message before the
/// batch concedes the classical channel is gone.
constexpr int kMaxShipAttempts = 12;

AbortReason to_abort(ShipStatus status) {
  switch (status) {
    case ShipStatus::kOk:
      return AbortReason::kNone;
    case ShipStatus::kAuthExhausted:
      return AbortReason::kAuthExhausted;
    case ShipStatus::kChannelLost:
      return AbortReason::kChannelLost;
  }
  return AbortReason::kChannelLost;
}

Bytes digest_bytes(const qkd::BitVector& bits) {
  const auto digest = qkd::crypto::Sha1::hash(bits.to_bytes());
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

ShipStatus BatchContext::ship_frame(bool from_alice, wire::PacketType type,
                                    const Bytes& packet_payload,
                                    bool authenticated) {
  AuthenticationService& sender = from_alice ? alice_auth : bob_auth;
  AuthenticationService& receiver = from_alice ? bob_auth : alice_auth;
  wire::Transport& out = from_alice ? alice_wire : bob_wire;
  wire::Transport& in = from_alice ? bob_wire : alice_wire;

  // Protect ONCE: the pad slot is bound to the sequence number, so every
  // retransmission is the identical envelope and costs no extra pad.
  Bytes payload = packet_payload;
  if (authenticated) {
    auto protected_payload = sender.protect(packet_payload);
    if (!protected_payload.has_value()) return ShipStatus::kAuthExhausted;
    payload = std::move(*protected_payload);
  }
  const Bytes framed = wire::encode_frame(type, payload);

  for (int attempt = 0; attempt < kMaxShipAttempts; ++attempt) {
    out.send_frame(framed);
    ++result.control_messages;
    result.control_bytes += framed.size();
    const auto raw = in.recv_frame();
    if (!raw.has_value()) continue;  // lost in transit: retransmit
    const auto frame = wire::decode_frame(*raw);
    if (!frame.ok() || frame.value.type != type) continue;
    if (authenticated) {
      const auto verified = receiver.verify(frame.value.payload);
      if (!verified.has_value() || *verified != packet_payload) continue;
    } else if (frame.value.payload != packet_payload) {
      continue;  // tampered bare frame: retransmit (verify stage audits)
    }
    return ShipStatus::kOk;
  }
  return ShipStatus::kChannelLost;
}

AbortReason SiftingStage::run(BatchContext& ctx) {
  // Bob announces detections; Alice replies with the basis matches.
  const wire::SiftAnnounce announce =
      make_sift_announce(ctx.frame_id, ctx.frame);
  if (const auto s = ctx.ship(/*from_alice=*/false, announce);
      s != ShipStatus::kOk)
    return to_abort(s);

  AliceSiftResult alice_sifted = alice_sift(ctx.frame, announce);
  if (const auto s = ctx.ship(/*from_alice=*/true, alice_sifted.decision);
      s != ShipStatus::kOk)
    return to_abort(s);
  SiftOutcome bob_sifted =
      bob_apply_response(ctx.frame, announce, alice_sifted.decision);

  ctx.alice_bits = std::move(alice_sifted.outcome.bits);
  ctx.bob_bits = std::move(bob_sifted.bits);
  ctx.result.sifted_bits = ctx.alice_bits.size();
  if (ctx.alice_bits.empty()) return AbortReason::kNoSiftedBits;

  // Ground truth for attack accounting: merge sifted slots with Eve's.
  ctx.result.qber_actual =
      static_cast<double>(ctx.alice_bits.hamming_distance(ctx.bob_bits)) /
      static_cast<double>(ctx.alice_bits.size());
  const std::vector<std::uint32_t>& known = ctx.frame.eve.known;
  auto k = known.begin();
  for (std::uint32_t slot : alice_sifted.outcome.slot_indices) {
    while (k != known.end() && *k < slot) ++k;
    if (k != known.end() && *k == slot) ++ctx.result.eve_known_sifted;
  }
  return AbortReason::kNone;
}

std::size_t sample_target_for(const QkdLinkConfig& config, std::size_t n) {
  return static_cast<std::size_t>(config.sample_fraction *
                                  static_cast<double>(n));
}

qkd::BitVector draw_sample_mask(std::size_t n, std::size_t sample_target,
                                qkd::crypto::Drbg& drbg) {
  // After `sample_target` swap steps the prefix holds a uniform
  // without-replacement draw of the positions. One DRBG call supplies every
  // step's 64-bit value, big-endian.
  const Bytes draws = drbg.generate(8 * sample_target);
  ByteReader reader(draws);
  std::vector<std::uint32_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0u);
  for (std::size_t i = 0; i < sample_target; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(reader.u64() % (n - i));
    std::swap(positions[i], positions[j]);
  }
  qkd::BitVector mask(n);
  for (std::size_t i = 0; i < sample_target; ++i)
    mask.set(positions[i], true);
  return mask;
}

void split_by_mask(const qkd::BitVector& bits, const qkd::BitVector& mask,
                   qkd::BitVector& sampled, qkd::BitVector& kept) {
  if (mask.size() != bits.size())
    throw std::invalid_argument("split_by_mask: size mismatch");
  // A word at a time: the sampled bits are read out under the mask, and
  // the kept ones are what is left once the masked bits are squeezed out,
  // highest first so that the lower ones stay in place.
  const auto in = bits.words();
  const auto under = mask.words();
  for (std::size_t w = 0; w < in.size(); ++w) {
    std::uint64_t word = in[w];
    const std::uint64_t picked = under[w];
    for (std::uint64_t rest = picked; rest != 0; rest &= rest - 1)
      sampled.push_back((word >> std::countr_zero(rest)) & 1);
    for (std::uint64_t rest = picked; rest != 0;) {
      const int top = 63 - std::countl_zero(rest);
      const std::uint64_t below = (std::uint64_t{1} << top) - 1;
      word = (word & below) | ((word >> 1) & ~below);
      rest &= below;
    }
    const std::size_t width = std::min<std::size_t>(64, bits.size() - 64 * w);
    kept.append_bits(word, width - static_cast<std::size_t>(
                                       std::popcount(picked)));
  }
}

AbortReason SamplingStage::run(BatchContext& ctx) {
  // The sample positions derive from the shared DRBG (both sides hold the
  // same stream, so the positions are never transmitted); each side then
  // reveals its OWN bits at those positions in the clear and drops them.
  const std::size_t n = ctx.alice_bits.size();
  const std::size_t sample_target = sample_target_for(ctx.config, n);
  if (sample_target > 0) {
    const qkd::BitVector mask = draw_sample_mask(n, sample_target, ctx.drbg);
    qkd::BitVector alice_keep, bob_keep;
    wire::SampleReveal alice_reveal, bob_reveal;
    alice_reveal.frame_id = ctx.frame_id;
    bob_reveal.frame_id = ctx.frame_id;
    split_by_mask(ctx.alice_bits, mask, alice_reveal.bits, alice_keep);
    split_by_mask(ctx.bob_bits, mask, bob_reveal.bits, bob_keep);
    const std::size_t sample_errors =
        alice_reveal.bits.hamming_distance(bob_reveal.bits);
    ctx.result.sampled_bits = sample_target;
    ctx.result.qber_sampled = static_cast<double>(sample_errors) /
                              static_cast<double>(sample_target);
    if (const auto s = ctx.ship(/*from_alice=*/true, alice_reveal);
        s != ShipStatus::kOk)
      return to_abort(s);
    if (const auto s = ctx.ship(/*from_alice=*/false, bob_reveal);
        s != ShipStatus::kOk)
      return to_abort(s);
    ctx.alice_bits = std::move(alice_keep);
    ctx.bob_bits = std::move(bob_keep);

    if (ctx.result.qber_sampled > ctx.config.early_abort_qber)
      return AbortReason::kQberTooHigh;
  }
  if (ctx.alice_bits.empty()) return AbortReason::kNoSiftedBits;
  return AbortReason::kNone;
}

AbortReason ErrorCorrectionStage::run(BatchContext& ctx) {
  // Bob drives; every batch of parity questions, and its answers, is one
  // real frame on the wire (unauthenticated — see src/qkd/wire_link.hpp
  // for why), answered by Alice's responder on the other end.
  WireParityServer alice_server(ctx.alice_bits);
  WireParityClient bob_client(
      ctx.bob_wire, [&] { alice_server.serve_one(ctx.alice_wire); });
  EcStats ec;
  bool channel_lost = false;
  try {
    switch (ctx.config.ec_strategy) {
      case EcStrategy::kBbnCascade: {
        BbnCascadeConfig cfg = ctx.config.bbn_config;
        cfg.seed_base = static_cast<std::uint32_t>(ctx.drbg.next_u32());
        ec = bbn_cascade_correct(ctx.bob_bits, bob_client, cfg);
        break;
      }
      case EcStrategy::kClassicCascade: {
        ClassicCascadeConfig cfg = ctx.config.classic_config;
        cfg.seed_base = static_cast<std::uint32_t>(ctx.drbg.next_u32());
        ec = classic_cascade_correct(ctx.bob_bits, bob_client,
                                     std::max(ctx.result.qber_sampled, 0.01),
                                     cfg);
        break;
      }
      case EcStrategy::kNaiveParity: {
        NaiveParityConfig cfg = ctx.config.naive_config;
        cfg.perm_seed = static_cast<std::uint32_t>(ctx.drbg.next_u32());
        ec = naive_parity_correct(ctx.bob_bits, bob_client, cfg);
        break;
      }
    }
  } catch (const ChannelLostError&) {
    channel_lost = true;
  }
  // Wire accounting for EC is measured, not estimated: both sides' sent
  // frames, retransmissions included.
  ctx.result.control_messages +=
      bob_client.traffic().messages + alice_server.traffic().messages;
  ctx.result.control_bytes +=
      bob_client.traffic().bytes + alice_server.traffic().bytes;
  ctx.result.errors_corrected = ec.corrections;
  ctx.result.disclosed_bits = alice_server.disclosed();
  if (channel_lost) return AbortReason::kChannelLost;

  // Bob closes the dialogue with an authenticated summary; Alice needs the
  // correction count for her entropy estimate.
  wire::EcSummary summary;
  summary.corrections = static_cast<std::uint32_t>(ec.corrections);
  summary.converged = ec.converged;
  if (const auto s = ctx.ship(/*from_alice=*/false, summary);
      s != ShipStatus::kOk)
    return to_abort(s);

  if (ctx.config.ec_strategy != EcStrategy::kNaiveParity && !ec.converged)
    return AbortReason::kEcNotConverged;
  return AbortReason::kNone;
}

AbortReason VerifyStage::run(BatchContext& ctx) {
  // Equality verification: BOTH directions exchange a hash of the
  // corrected string. (IKE "has no mechanisms for noticing" key
  // disagreement — the QKD stack must therefore catch residual errors
  // here, Sec. 7.)
  wire::VerifyHash alice_hash;
  alice_hash.frame_id = ctx.frame_id;
  alice_hash.digest = digest_bytes(ctx.alice_bits);
  wire::VerifyHash bob_hash;
  bob_hash.frame_id = ctx.frame_id;
  bob_hash.digest = digest_bytes(ctx.bob_bits);
  if (const auto s = ctx.ship(/*from_alice=*/true, alice_hash);
      s != ShipStatus::kOk)
    return to_abort(s);
  if (const auto s = ctx.ship(/*from_alice=*/false, bob_hash);
      s != ShipStatus::kOk)
    return to_abort(s);
  if (alice_hash.digest != bob_hash.digest) return AbortReason::kVerifyFailed;

  // The exact error count is now known; apply the canonical QBER alarm.
  const double qber_exact =
      static_cast<double>(ctx.result.errors_corrected) /
      static_cast<double>(ctx.alice_bits.size());
  if (qber_exact > ctx.config.qber_abort_threshold)
    return AbortReason::kQberTooHigh;
  return AbortReason::kNone;
}

AbortReason EntropyStage::run(BatchContext& ctx) {
  EntropyInputs inputs;
  inputs.sifted_bits = ctx.alice_bits.size();
  inputs.error_bits = ctx.result.errors_corrected;
  inputs.transmitted_pulses = ctx.result.pulses;
  inputs.disclosed_bits = ctx.result.disclosed_bits;
  // The paper left r as "a placeholder ... until randomness testing is put
  // into the system"; our system has the testing (detector bias shows up in
  // the monobit statistic of the corrected bits).
  inputs.non_randomness =
      ctx.config.run_randomness_tests
          ? test_randomness(ctx.alice_bits).non_randomness_bits
          : 0.0;
  inputs.mean_photon_number = ctx.config.link.mean_photon_number;
  inputs.confidence = ctx.config.confidence;
  inputs.defense = ctx.config.defense;
  inputs.link_kind = ctx.config.link_kind;
  inputs.multi_photon_policy = ctx.config.multi_photon_policy;
  const EntropyEstimate entropy = estimate_entropy(inputs);

  ctx.usable_bits = entropy.distillable_bits -
                    static_cast<double>(ctx.config.pa_margin_bits);
  if (ctx.usable_bits < 1.0) return AbortReason::kEntropyExhausted;
  return AbortReason::kNone;
}

AbortReason PrivacyAmplificationStage::run(BatchContext& ctx) {
  // Long batches are amplified in chunks of bounded field width; the total
  // output budget m is spread across chunks proportionally.
  const std::size_t m_total = static_cast<std::size_t>(ctx.usable_bits);
  const std::size_t total_in = ctx.alice_bits.size();
  const std::size_t chunk_max = pa_max_block_bits();
  std::size_t offset = 0;
  std::size_t m_emitted = 0;
  while (offset < total_in) {
    const std::size_t chunk = std::min(chunk_max, total_in - offset);
    const std::size_t m_target =
        static_cast<std::size_t>(static_cast<double>(m_total) *
                                 static_cast<double>(offset + chunk) /
                                 static_cast<double>(total_in));
    const std::size_t m_chunk = std::min(m_target - m_emitted, chunk);
    if (m_chunk > 0) {
      const PaParams pa = make_pa_params(chunk, m_chunk, ctx.drbg);
      wire::PaParamsPacket announce;
      announce.n = pa.n;
      announce.m = pa.m;
      announce.modulus_exponents.assign(pa.modulus.exponents.begin(),
                                        pa.modulus.exponents.end());
      announce.multiplier = pa.multiplier;
      announce.addend = pa.addend;
      if (const auto s = ctx.ship(/*from_alice=*/true, announce);
          s != ShipStatus::kOk)
        return to_abort(s);
      ctx.alice_key.append(
          privacy_amplify(ctx.alice_bits.slice(offset, chunk), pa));
      ctx.bob_key.append(
          privacy_amplify(ctx.bob_bits.slice(offset, chunk), pa));
      m_emitted += m_chunk;
    }
    offset += chunk;
  }
  if (!(ctx.alice_key == ctx.bob_key))
    throw std::logic_error("QkdLinkSession: PA outputs diverged after verify");
  return AbortReason::kNone;
}

AbortReason AuthReplenishStage::run(BatchContext& ctx) {
  qkd::BitVector key = ctx.alice_key;
  const std::size_t replenish =
      std::min(ctx.config.auth_replenish_bits, key.size());
  if (replenish > 0) {
    const qkd::BitVector pad = key.slice(key.size() - replenish, replenish);
    ctx.alice_auth.replenish(pad);
    ctx.bob_auth.replenish(pad);
    key.resize(key.size() - replenish);
  }
  ctx.result.distilled_bits = key.size();
  ctx.result.key = std::move(key);
  return AbortReason::kNone;
}

std::vector<std::unique_ptr<PipelineStage>> default_pipeline() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(std::make_unique<SiftingStage>());
  stages.push_back(std::make_unique<SamplingStage>());
  stages.push_back(std::make_unique<ErrorCorrectionStage>());
  stages.push_back(std::make_unique<VerifyStage>());
  stages.push_back(std::make_unique<EntropyStage>());
  stages.push_back(std::make_unique<PrivacyAmplificationStage>());
  stages.push_back(std::make_unique<AuthReplenishStage>());
  return stages;
}

}  // namespace qkd::proto
