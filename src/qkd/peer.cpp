#include "src/qkd/peer.hpp"

#include <algorithm>

#include "src/crypto/sha1.hpp"
#include "src/qkd/pipeline.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/randomness.hpp"
#include "src/qkd/sifting.hpp"
#include "src/qkd/wire_link.hpp"

namespace qkd::proto {
namespace {

/// Same derivation as QkdLinkSession's: both peers are launched with one
/// shared seed, standing in for the couriered pre-QKD secret.
qkd::BitVector preposition_secret(std::uint64_t seed, std::size_t bits) {
  qkd::crypto::Drbg courier(seed ^ 0xC0931E5ULL);
  return courier.generate_bits(bits);
}

Bytes digest_bytes(const qkd::BitVector& bits) {
  const auto digest = qkd::crypto::Sha1::hash(bits.to_bytes());
  return Bytes(digest.begin(), digest.end());
}

/// One side's view of the conversation: its transport, its authentication
/// service, and the outcome being accounted into.
struct PeerIo {
  wire::Transport& io;
  AuthenticationService& auth;
  PeerOutcome& out;
};

template <typename Packet>
bool send_auth(PeerIo& p, const Packet& packet, bool counted = true) {
  const auto protected_payload = p.auth.protect(packet.encode());
  if (!protected_payload.has_value()) return false;
  const Bytes framed = wire::encode_frame(Packet::kType, *protected_payload);
  if (counted) {
    ++p.out.control_messages;
    p.out.control_bytes += framed.size();
  }
  return p.io.send_frame(framed);
}

std::optional<wire::Frame> recv_decoded(wire::Transport& io) {
  const auto raw = io.recv_frame();
  if (!raw.has_value()) return std::nullopt;
  const auto frame = wire::decode_frame(*raw);
  if (!frame.ok()) return std::nullopt;
  return frame.value;
}

/// Receives the next frame and expects it to be an authenticated Packet;
/// a bare kAbort frame instead reports the peer's abort reason through
/// `abort`. Anything else (timeout, tamper, wrong type) is kChannelLost.
template <typename Packet>
std::optional<Packet> recv_auth(PeerIo& p, AbortReason& abort) {
  abort = AbortReason::kChannelLost;
  const auto frame = recv_decoded(p.io);
  if (!frame.has_value()) return std::nullopt;
  if (frame->type == wire::PacketType::kAbort) {
    const auto notice = wire::AbortPacket::decode(frame->payload);
    if (notice.ok() && notice.value.reason < kAbortReasonCount)
      abort = static_cast<AbortReason>(notice.value.reason);
    return std::nullopt;
  }
  if (frame->type != Packet::kType) return std::nullopt;
  const auto payload = p.auth.verify(frame->payload);
  if (!payload.has_value()) return std::nullopt;
  const auto packet = Packet::decode(*payload);
  if (!packet.ok()) return std::nullopt;
  return packet.value;
}

/// Alice announces every shared-data abort with one bare frame (the same
/// convention the in-process engine follows), so both transcripts match.
PeerOutcome alice_abort(PeerIo& p, AbortReason reason) {
  wire::AbortPacket notice;
  notice.reason = static_cast<std::uint8_t>(reason);
  const Bytes framed = wire::to_frame(notice);
  p.io.send_frame(framed);
  ++p.out.control_messages;
  p.out.control_bytes += framed.size();
  p.out.reason = reason;
  return p.out;
}

/// Bob's side of the same convention: he concluded `reason` from shared
/// data and consumes Alice's abort notice (uncounted — she sent it).
PeerOutcome bob_abort(PeerIo& p, AbortReason reason) {
  const auto frame = recv_decoded(p.io);
  if (frame.has_value() && frame->type == wire::PacketType::kAbort) {
    const auto notice = wire::AbortPacket::decode(frame->payload);
    if (notice.ok() && notice.value.reason < kAbortReasonCount)
      reason = static_cast<AbortReason>(notice.value.reason);
  }
  p.out.reason = reason;
  return p.out;
}

PeerOutcome local_abort(PeerIo& p, AbortReason reason) {
  p.out.reason = reason;
  return p.out;
}

double entropy_usable_bits(const QkdLinkConfig& config,
                           const qkd::BitVector& corrected_bits,
                           std::size_t errors, std::size_t disclosed) {
  EntropyInputs inputs;
  inputs.sifted_bits = corrected_bits.size();
  inputs.error_bits = errors;
  inputs.transmitted_pulses = config.frame_slots;
  inputs.disclosed_bits = disclosed;
  inputs.non_randomness =
      config.run_randomness_tests
          ? test_randomness(corrected_bits).non_randomness_bits
          : 0.0;
  inputs.mean_photon_number = config.link.mean_photon_number;
  inputs.confidence = config.confidence;
  inputs.defense = config.defense;
  inputs.link_kind = config.link_kind;
  inputs.multi_photon_policy = config.multi_photon_policy;
  return estimate_entropy(inputs).distillable_bits -
         static_cast<double>(config.pa_margin_bits);
}

/// The PA chunk walk (identical arithmetic to PrivacyAmplificationStage);
/// calls `announce` per chunk with the locally-derived params and returns
/// false if the announcement/verification step failed.
template <typename Announce>
bool amplify_chunks(const QkdLinkConfig&, const qkd::BitVector& bits,
                    double usable_bits, qkd::crypto::Drbg& drbg,
                    qkd::BitVector& key, const Announce& announce) {
  const std::size_t m_total = static_cast<std::size_t>(usable_bits);
  const std::size_t total_in = bits.size();
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
      const PaParams pa = make_pa_params(chunk, m_chunk, drbg);
      if (!announce(pa)) return false;
      key.append(privacy_amplify(bits.slice(offset, chunk), pa));
      m_emitted += m_chunk;
    }
    offset += chunk;
  }
  return true;
}

wire::PaParamsPacket to_pa_packet(const PaParams& pa) {
  wire::PaParamsPacket packet;
  packet.n = pa.n;
  packet.m = pa.m;
  packet.modulus_exponents.assign(pa.modulus.exponents.begin(),
                                  pa.modulus.exponents.end());
  packet.multiplier = pa.multiplier;
  packet.addend = pa.addend;
  return packet;
}

qkd::BitVector replenish_and_trim(const QkdLinkConfig& config,
                                  AuthenticationService& auth,
                                  qkd::BitVector key) {
  const std::size_t replenish =
      std::min(config.auth_replenish_bits, key.size());
  if (replenish > 0) {
    auth.replenish(key.slice(key.size() - replenish, replenish));
    key.resize(key.size() - replenish);
  }
  return key;
}

/// The closing handshake: exchange authenticated KeyDigest frames
/// (uncounted harness traffic) and confirm both sides distilled the same
/// bytes.
bool exchange_key_digest(PeerIo& p, std::uint64_t frame_id,
                         const qkd::BitVector& key) {
  wire::KeyDigest mine;
  mine.frame_id = frame_id;
  mine.key_bits = key.size();
  mine.digest = digest_bytes(key);
  if (!send_auth(p, mine, /*counted=*/false)) return false;
  AbortReason ignored;
  const auto theirs = recv_auth<wire::KeyDigest>(p, ignored);
  return theirs.has_value() && theirs->key_bits == mine.key_bits &&
         theirs->digest == mine.digest;
}

}  // namespace

AlicePeer::AlicePeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config),
      link_(config.link, seed),
      drbg_(seed ^ 0xD15711ULL),
      auth_(config.auth,
            preposition_secret(seed,
                               AuthenticationService::required_secret_bits(
                                   config.auth) +
                                   config.preposition_extra_bits),
            /*is_initiator=*/true) {}

AlicePeer::~AlicePeer() = default;

PeerOutcome AlicePeer::run_batch(wire::Transport& io) {
  PeerOutcome out;
  out.frame_id = next_frame_id_++;
  PeerIo p{io, auth_, out};

  // ---- Quantum channel (simulated here, fed to Bob; uncounted). -----------
  const auto frame = link_.run_frame(config_.frame_slots, nullptr);
  wire::SiftAnnounce bob_half = make_sift_announce(out.frame_id, frame);
  wire::QframeFeed feed{out.frame_id, bob_half.slots,
                        std::move(bob_half.clicks),
                        std::move(bob_half.bob_bases), {}};
  for (const qkd::optics::Click& click : frame.clicks)
    feed.bits.push_back(click.bob_bit);
  if (!io.send_frame(wire::to_frame(feed)))
    return local_abort(p, AbortReason::kChannelLost);

  // ---- Sifting. -----------------------------------------------------------
  AbortReason peer_reason = AbortReason::kChannelLost;
  const auto announce = recv_auth<wire::SiftAnnounce>(p, peer_reason);
  if (!announce.has_value()) return local_abort(p, peer_reason);
  AliceSiftResult sifted = alice_sift(frame, *announce);
  if (!send_auth(p, sifted.decision))
    return local_abort(p, AbortReason::kAuthExhausted);
  qkd::BitVector bits = std::move(sifted.outcome.bits);
  out.sifted_bits = bits.size();
  if (bits.empty()) return alice_abort(p, AbortReason::kNoSiftedBits);

  // ---- Sampling. ----------------------------------------------------------
  const std::size_t n = bits.size();
  const std::size_t sample_target = sample_target_for(config_, n);
  if (sample_target > 0) {
    const qkd::BitVector mask = draw_sample_mask(n, sample_target, drbg_);
    wire::SampleReveal mine;
    mine.frame_id = out.frame_id;
    qkd::BitVector kept;
    split_by_mask(bits, mask, mine.bits, kept);
    if (!send_auth(p, mine)) return local_abort(p, AbortReason::kAuthExhausted);
    const auto theirs = recv_auth<wire::SampleReveal>(p, peer_reason);
    if (!theirs.has_value()) return local_abort(p, peer_reason);
    if (theirs->bits.size() != mine.bits.size())
      return local_abort(p, AbortReason::kChannelLost);
    out.qber_sampled =
        static_cast<double>(mine.bits.hamming_distance(theirs->bits)) /
        static_cast<double>(sample_target);
    bits = std::move(kept);
    if (out.qber_sampled > config_.early_abort_qber)
      return alice_abort(p, AbortReason::kQberTooHigh);
  }
  if (bits.empty()) return alice_abort(p, AbortReason::kNoSiftedBits);

  // ---- Error correction: serve Bob's parity dialogue. ---------------------
  drbg_.next_u32();  // burn the EC seed draw, staying in DRBG lockstep
  WireParityServer server(bits);
  wire::EcSummary summary;
  for (;;) {
    const auto ec_frame = recv_decoded(io);
    if (!ec_frame.has_value()) return local_abort(p, AbortReason::kChannelLost);
    if (ec_frame->type == wire::PacketType::kParityRequest) {
      server.serve_frame(io, *ec_frame);
      continue;
    }
    if (ec_frame->type == wire::PacketType::kAbort)
      return bob_abort(p, AbortReason::kChannelLost);
    if (ec_frame->type != wire::PacketType::kEcSummary)
      return local_abort(p, AbortReason::kChannelLost);
    const auto payload = auth_.verify(ec_frame->payload);
    if (!payload.has_value()) return local_abort(p, AbortReason::kChannelLost);
    const auto decoded = wire::EcSummary::decode(*payload);
    if (!decoded.ok()) return local_abort(p, AbortReason::kChannelLost);
    summary = decoded.value;
    break;
  }
  out.control_messages += server.traffic().messages;
  out.control_bytes += server.traffic().bytes;
  out.errors_corrected = summary.corrections;
  if (config_.ec_strategy != EcStrategy::kNaiveParity && !summary.converged)
    return alice_abort(p, AbortReason::kEcNotConverged);

  // ---- Verify. ------------------------------------------------------------
  wire::VerifyHash mine_hash;
  mine_hash.frame_id = out.frame_id;
  mine_hash.digest = digest_bytes(bits);
  if (!send_auth(p, mine_hash))
    return local_abort(p, AbortReason::kAuthExhausted);
  const auto bob_hash = recv_auth<wire::VerifyHash>(p, peer_reason);
  if (!bob_hash.has_value()) return local_abort(p, peer_reason);
  if (bob_hash->digest != mine_hash.digest)
    return alice_abort(p, AbortReason::kVerifyFailed);
  const double qber_exact = static_cast<double>(summary.corrections) /
                            static_cast<double>(bits.size());
  if (qber_exact > config_.qber_abort_threshold)
    return alice_abort(p, AbortReason::kQberTooHigh);

  // ---- Entropy. -----------------------------------------------------------
  const double usable = entropy_usable_bits(config_, bits, summary.corrections,
                                            server.disclosed());
  if (usable < 1.0) return alice_abort(p, AbortReason::kEntropyExhausted);

  // ---- Privacy amplification (Alice announces the parameters). ------------
  qkd::BitVector key;
  const bool announced =
      amplify_chunks(config_, bits, usable, drbg_, key, [&](const PaParams& pa) {
        return send_auth(p, to_pa_packet(pa));
      });
  if (!announced) return local_abort(p, AbortReason::kAuthExhausted);

  // ---- Replenish + deliver. -----------------------------------------------
  out.key = replenish_and_trim(config_, auth_, std::move(key));
  out.accepted = true;
  out.reason = AbortReason::kNone;
  out.digest_matched = exchange_key_digest(p, out.frame_id, out.key);
  return out;
}

BobPeer::BobPeer(QkdLinkConfig config, std::uint64_t seed)
    : config_(config),
      drbg_(seed ^ 0xD15711ULL),
      auth_(config.auth,
            preposition_secret(seed,
                               AuthenticationService::required_secret_bits(
                                   config.auth) +
                                   config.preposition_extra_bits),
            /*is_initiator=*/false) {}

BobPeer::~BobPeer() = default;

PeerOutcome BobPeer::run_batch(wire::Transport& io) {
  PeerOutcome out;
  out.frame_id = next_frame_id_++;
  PeerIo p{io, auth_, out};

  // ---- Quantum channel: receive this batch's detections. ------------------
  const auto feed_frame = recv_decoded(io);
  if (!feed_frame.has_value() ||
      feed_frame->type != wire::PacketType::kQframeFeed)
    return local_abort(p, AbortReason::kChannelLost);
  const auto feed = wire::QframeFeed::decode(feed_frame->payload);
  if (!feed.ok()) return local_abort(p, AbortReason::kChannelLost);
  // Bob's half of each click is all the feed carries and all he reads.
  qkd::optics::FrameResult detections{.slots = feed.value.slots};
  for (std::size_t i = 0; i < feed.value.clicks.size(); ++i)
    detections.clicks.push_back(
        {.slot = feed.value.clicks[i],
         .bob_basis = qkd::optics::basis_from_bit(feed.value.bases.get(i)),
         .bob_bit = feed.value.bits.get(i)});

  // ---- Sifting. -----------------------------------------------------------
  const wire::SiftAnnounce announce =
      make_sift_announce(out.frame_id, detections);
  if (!send_auth(p, announce))
    return local_abort(p, AbortReason::kAuthExhausted);
  AbortReason peer_reason = AbortReason::kChannelLost;
  const auto decision = recv_auth<wire::SiftDecision>(p, peer_reason);
  if (!decision.has_value()) return local_abort(p, peer_reason);
  SiftOutcome outcome = bob_apply_response(detections, announce, *decision);
  qkd::BitVector bits = std::move(outcome.bits);
  out.sifted_bits = bits.size();
  if (bits.empty()) return bob_abort(p, AbortReason::kNoSiftedBits);

  // ---- Sampling. ----------------------------------------------------------
  const std::size_t n = bits.size();
  const std::size_t sample_target = sample_target_for(config_, n);
  if (sample_target > 0) {
    const qkd::BitVector mask = draw_sample_mask(n, sample_target, drbg_);
    wire::SampleReveal mine;
    mine.frame_id = out.frame_id;
    qkd::BitVector kept;
    split_by_mask(bits, mask, mine.bits, kept);
    const auto theirs = recv_auth<wire::SampleReveal>(p, peer_reason);
    if (!theirs.has_value()) return local_abort(p, peer_reason);
    if (theirs->bits.size() != mine.bits.size())
      return local_abort(p, AbortReason::kChannelLost);
    if (!send_auth(p, mine)) return local_abort(p, AbortReason::kAuthExhausted);
    out.qber_sampled =
        static_cast<double>(mine.bits.hamming_distance(theirs->bits)) /
        static_cast<double>(sample_target);
    bits = std::move(kept);
    if (out.qber_sampled > config_.early_abort_qber)
      return bob_abort(p, AbortReason::kQberTooHigh);
  }
  if (bits.empty()) return bob_abort(p, AbortReason::kNoSiftedBits);

  // ---- Error correction: drive the corrector over the wire. ---------------
  WireParityClient client(io);
  EcStats ec;
  try {
    switch (config_.ec_strategy) {
      case EcStrategy::kBbnCascade: {
        BbnCascadeConfig cfg = config_.bbn_config;
        cfg.seed_base = static_cast<std::uint32_t>(drbg_.next_u32());
        ec = bbn_cascade_correct(bits, client, cfg);
        break;
      }
      case EcStrategy::kClassicCascade: {
        ClassicCascadeConfig cfg = config_.classic_config;
        cfg.seed_base = static_cast<std::uint32_t>(drbg_.next_u32());
        ec = classic_cascade_correct(bits, client,
                                     std::max(out.qber_sampled, 0.01), cfg);
        break;
      }
      case EcStrategy::kNaiveParity: {
        NaiveParityConfig cfg = config_.naive_config;
        cfg.perm_seed = static_cast<std::uint32_t>(drbg_.next_u32());
        ec = naive_parity_correct(bits, client, cfg);
        break;
      }
    }
  } catch (const ChannelLostError&) {
    out.control_messages += client.traffic().messages;
    out.control_bytes += client.traffic().bytes;
    return local_abort(p, AbortReason::kChannelLost);
  }
  out.control_messages += client.traffic().messages;
  out.control_bytes += client.traffic().bytes;
  out.errors_corrected = ec.corrections;
  wire::EcSummary summary;
  summary.corrections = static_cast<std::uint32_t>(ec.corrections);
  summary.converged = ec.converged;
  if (!send_auth(p, summary))
    return local_abort(p, AbortReason::kAuthExhausted);
  if (config_.ec_strategy != EcStrategy::kNaiveParity && !ec.converged)
    return bob_abort(p, AbortReason::kEcNotConverged);

  // ---- Verify. ------------------------------------------------------------
  const auto alice_hash = recv_auth<wire::VerifyHash>(p, peer_reason);
  if (!alice_hash.has_value()) return local_abort(p, peer_reason);
  wire::VerifyHash mine_hash;
  mine_hash.frame_id = out.frame_id;
  mine_hash.digest = digest_bytes(bits);
  if (!send_auth(p, mine_hash))
    return local_abort(p, AbortReason::kAuthExhausted);
  if (alice_hash->digest != mine_hash.digest)
    return bob_abort(p, AbortReason::kVerifyFailed);
  const double qber_exact = static_cast<double>(ec.corrections) /
                            static_cast<double>(bits.size());
  if (qber_exact > config_.qber_abort_threshold)
    return bob_abort(p, AbortReason::kQberTooHigh);

  // ---- Entropy (Bob's disclosed count == his distinct queries). -----------
  const double usable = entropy_usable_bits(config_, bits, ec.corrections,
                                            client.queries());
  if (usable < 1.0) return bob_abort(p, AbortReason::kEntropyExhausted);

  // ---- Privacy amplification (verify Alice's announcement matches the
  // locally-derived parameters — any divergence means the DRBG lockstep or
  // the wire is compromised). -----------------------------------------------
  qkd::BitVector key;
  bool lockstep_ok = true;
  const bool announced =
      amplify_chunks(config_, bits, usable, drbg_, key, [&](const PaParams& pa) {
        const auto packet = recv_auth<wire::PaParamsPacket>(p, peer_reason);
        if (!packet.has_value()) return false;
        lockstep_ok = *packet == to_pa_packet(pa);
        return lockstep_ok;
      });
  if (!announced)
    return local_abort(p, lockstep_ok ? peer_reason
                                      : AbortReason::kVerifyFailed);

  // ---- Replenish + deliver. -----------------------------------------------
  out.key = replenish_and_trim(config_, auth_, std::move(key));
  out.accepted = true;
  out.reason = AbortReason::kNone;
  out.digest_matched = exchange_key_digest(p, out.frame_id, out.key);
  return out;
}

}  // namespace qkd::proto
