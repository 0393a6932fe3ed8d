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

namespace qkd::proto {
namespace {

using enum AbortReason;

// Each stage below is its Alice half and its Bob half. A half touches only
// its own Side and the frames on its wire; a failed send or receive ends
// it (StageEnd), and co_await conclude(verdict) ends it on a verdict both
// sides reach from shared data.

// ---- Sifting: Bob announces his clicks, Alice keeps the basis matches. A
// batch whose pads the pools do not hold goes no further, since its
// dialogue could not be authenticated; both sides read that from their
// own pools, which agree. --------------------------------------------------

StageHalf alice_sifting(Side& s) {
  if (!s.party.auth.open_batch(s.frame_id))
    co_return co_await s.wire.conclude(kAuthExhausted);
  AliceSiftResult sifted =
      alice_sift(s.frame, co_await s.wire.recv<wire::SiftAnnounce>());
  co_await s.wire.send(sifted.decision);
  s.bits = std::move(sifted.outcome.bits);
  s.sifted_slots = std::move(sifted.outcome.slot_indices);
  co_return co_await s.wire.conclude(s.bits.empty() ? kNoSiftedBits : kNone);
}

StageHalf bob_sifting(Side& s) {
  if (!s.party.auth.open_batch(s.frame_id))
    co_return co_await s.wire.conclude(kAuthExhausted);
  const wire::SiftAnnounce announce = make_sift_announce(s.frame_id, s.frame);
  co_await s.wire.send(announce);
  SiftOutcome kept = bob_apply_response(
      s.frame, announce, co_await s.wire.recv<wire::SiftDecision>());
  s.bits = std::move(kept.bits);
  s.sifted_slots = std::move(kept.slot_indices);
  co_return co_await s.wire.conclude(s.bits.empty() ? kNoSiftedBits : kNone);
}

// ---- Sampling: both sides reveal their bits at the positions their batch
// DRBGs draw first, Alice first, and drop them. -------------------------

/// How many of `n` sifted bits the error-rate sample sacrifices.
std::size_t sample_target_for(const QkdLinkConfig& config, std::size_t n) {
  return static_cast<std::size_t>(config.sample_fraction *
                                  static_cast<double>(n));
}

/// Moves this side's sample out of its bits into a reveal.
wire::SampleReveal take_sample(Side& s) {
  s.sampled_bits = sample_target_for(s.config, s.bits.size());
  const qkd::BitVector mask =
      draw_sample_mask(s.bits.size(), s.sampled_bits, s.drbg);
  wire::SampleReveal reveal;
  reveal.frame_id = s.frame_id;
  qkd::BitVector kept;
  split_by_mask(s.bits, mask, reveal.bits, kept);
  s.bits = std::move(kept);
  return reveal;
}

/// The alarm on the sampled error rate, once both reveals are in.
AbortReason judge_sample(Side& s, const wire::SampleReveal& mine,
                         const wire::SampleReveal& theirs) {
  if (theirs.bits.size() != mine.bits.size()) return kChannelLost;
  s.sample_errors = mine.bits.hamming_distance(theirs.bits);
  s.qber_sampled = static_cast<double>(s.sample_errors) /
                   static_cast<double>(s.sampled_bits);
  if (s.qber_sampled > s.config.early_abort_qber) return kQberTooHigh;
  return s.bits.empty() ? kNoSiftedBits : kNone;
}

StageHalf alice_sampling(Side& s) {
  if (sample_target_for(s.config, s.bits.size()) == 0) co_return kNone;
  const wire::SampleReveal mine = take_sample(s);
  co_await s.wire.send(mine);
  const auto theirs = co_await s.wire.recv<wire::SampleReveal>();
  co_return co_await s.wire.conclude(judge_sample(s, mine, theirs));
}

StageHalf bob_sampling(Side& s) {
  if (sample_target_for(s.config, s.bits.size()) == 0) co_return kNone;
  const wire::SampleReveal mine = take_sample(s);
  const auto theirs = co_await s.wire.recv<wire::SampleReveal>();
  co_await s.wire.send(mine);
  co_return co_await s.wire.conclude(judge_sample(s, mine, theirs));
}

// ---- Error correction: Bob drives the configured corrector against
// Alice's parity server, each batch of questions and its answers one bare
// frame, and closes with a sealed summary. -------------------------------

/// The configured corrector over Bob's bits, seeded from his batch DRBG.
/// Classic Cascade sizes its first pass from the link's verified error
/// record pooled with this batch's sample; the alarm stays on the sample.
EcStats correct(Side& s) {
  WireParityClient alice(s.wire, s.wire.pump);
  const auto seed = static_cast<std::uint32_t>(s.drbg.next_u32());
  try {
    switch (s.config.ec_strategy) {
      case EcStrategy::kBbnCascade: {
        BbnCascadeConfig cfg = s.config.bbn_config;
        cfg.seed_base = seed;
        return bbn_cascade_correct(s.bits, alice, cfg);
      }
      case EcStrategy::kClassicCascade: {
        ClassicCascadeConfig cfg = s.config.classic_config;
        cfg.seed_base = seed;
        const double q =
            s.party.errors.estimate(s.sample_errors, s.sampled_bits);
        return classic_cascade_correct(s.bits, alice, std::max(q, 0.01), cfg);
      }
      case EcStrategy::kNaiveParity: {
        NaiveParityConfig cfg = s.config.naive_config;
        cfg.perm_seed = seed;
        return naive_parity_correct(s.bits, alice, cfg);
      }
    }
  } catch (const ChannelLostError&) {
    throw StageEnd{s.wire.abort(kChannelLost)};
  }
  throw std::logic_error("correct: unknown EC strategy");
}

AbortReason judge_correction(const QkdLinkConfig& config, bool converged) {
  const bool must_converge = config.ec_strategy != EcStrategy::kNaiveParity;
  return must_converge && !converged ? kEcNotConverged : kNone;
}

StageHalf alice_error_correction(Side& s) {
  WireParityServer server(s.bits);
  const auto summary = co_await s.wire.recv<wire::EcSummary>(
      [&](const wire::Frame& frame) {
        server.serve_frame(s.wire, frame);
        s.disclosed_bits = server.disclosed();
      });
  s.errors_corrected = summary.corrections;
  co_return co_await s.wire.conclude(
      judge_correction(s.config, summary.converged));
}

StageHalf bob_error_correction(Side& s) {
  const EcStats ec = correct(s);
  s.errors_corrected = ec.corrections;
  wire::EcSummary summary;
  summary.corrections = static_cast<std::uint32_t>(ec.corrections);
  summary.converged = ec.converged;
  co_await s.wire.send(summary);
  co_return co_await s.wire.conclude(judge_correction(s.config, ec.converged));
}

// ---- Verify: both sides exchange a hash of the corrected string, Alice
// first. IKE "has no mechanisms for noticing" key disagreement, so the QKD
// stack must catch residual errors here (Sec. 7); the exact error count
// then meets the canonical 11 % alarm. ------------------------------------

wire::VerifyHash hash_of(const Side& s) {
  wire::VerifyHash hash;
  hash.frame_id = s.frame_id;
  hash.digest = digest_bytes(s.bits);
  return hash;
}

AbortReason judge_hashes(const Side& s, const wire::VerifyHash& mine,
                         const wire::VerifyHash& theirs) {
  if (mine.digest != theirs.digest) return kVerifyFailed;
  const double qber_exact = static_cast<double>(s.errors_corrected) /
                            static_cast<double>(s.bits.size());
  return qber_exact > s.config.qber_abort_threshold ? kQberTooHigh : kNone;
}

StageHalf alice_verify(Side& s) {
  const wire::VerifyHash mine = hash_of(s);
  co_await s.wire.send(mine);
  const auto theirs = co_await s.wire.recv<wire::VerifyHash>();
  co_return co_await s.wire.conclude(judge_hashes(s, mine, theirs));
}

StageHalf bob_verify(Side& s) {
  const auto theirs = co_await s.wire.recv<wire::VerifyHash>();
  const wire::VerifyHash mine = hash_of(s);
  co_await s.wire.send(mine);
  // Only a batch whose strings are shown equal has an exact error count
  // fit to size the batches after it.
  if (mine.digest == theirs.digest)
    s.party.errors.record(s.errors_corrected, s.bits.size());
  co_return co_await s.wire.conclude(judge_hashes(s, mine, theirs));
}

// ---- Entropy (Alice): the Sec. 6 estimate of how many bits survive Eve's
// knowledge, from her own counts. Bob learns of no entropy left from her
// notice. -----------------------------------------------------------------

StageHalf alice_entropy(Side& s) {
  EntropyInputs inputs;
  inputs.sifted_bits = s.bits.size();
  inputs.error_bits = s.errors_corrected;
  inputs.transmitted_pulses = s.config.frame_slots;
  inputs.disclosed_bits = s.disclosed_bits;
  // The paper left r as "a placeholder ... until randomness testing is put
  // into the system"; our system has the testing (detector bias shows up in
  // the monobit statistic of the corrected bits).
  inputs.non_randomness =
      s.config.run_randomness_tests
          ? test_randomness(s.bits).non_randomness_bits
          : 0.0;
  inputs.mean_photon_number = s.config.link.mean_photon_number;
  inputs.confidence = s.config.confidence;
  inputs.defense = s.config.defense;
  inputs.link_kind = s.config.link_kind;
  inputs.multi_photon_policy = s.config.multi_photon_policy;
  s.usable_bits = estimate_entropy(inputs).distillable_bits -
                  static_cast<double>(s.config.pa_margin_bits);
  co_return co_await s.wire.conclude(s.usable_bits < 1.0 ? kEntropyExhausted
                                                          : kNone);
}

StageHalf bob_entropy(Side&) { co_return kNone; }

// ---- Privacy amplification: GF(2^n) linear hashing in chunks of bounded
// field width, the output budget spread across them in proportion
// (Sec. 5). Alice draws each chunk's parameters and announces them; Bob
// applies what she announced, once he has checked that it is a hash of the
// chunk he holds. ---------------------------------------------------------

struct PaChunk {
  std::size_t offset;
  std::size_t bits;
  std::size_t out;
};

/// The chunks of `n` bits with their shares of `m_total` output bits. The
/// chunks depend on `n` alone, so Bob lays them out as Alice does; each
/// gets a packet, even one whose share is 0 bits.
std::vector<PaChunk> pa_chunks(std::size_t n, std::size_t m_total = 0) {
  std::vector<PaChunk> chunks;
  std::size_t m_emitted = 0;
  for (std::size_t offset = 0; offset < n;) {
    const std::size_t chunk = std::min(pa_max_block_bits(), n - offset);
    const auto m_target = static_cast<std::size_t>(
        static_cast<double>(m_total) * static_cast<double>(offset + chunk) /
        static_cast<double>(n));
    chunks.push_back({offset, chunk, std::min(m_target - m_emitted, chunk)});
    m_emitted += chunks.back().out;
    offset += chunk;
  }
  return chunks;
}

/// Whether `pa` hashes `chunk`: the chunk's field, its pinned modulus, and
/// an output no longer than the chunk.
bool fits(const wire::PaParamsPacket& pa, const PaChunk& chunk) {
  return pa.n == pa_field_width(chunk.bits) && pa.m <= chunk.bits &&
         pa.modulus_exponents == qkd::crypto::irreducible_poly(pa.n).exponents;
}

StageHalf alice_privacy_amplification(Side& s) {
  const auto m_total = static_cast<std::size_t>(s.usable_bits);
  for (const PaChunk& chunk : pa_chunks(s.bits.size(), m_total)) {
    const auto pa = make_pa_params(chunk.bits, chunk.out, s.drbg);
    co_await s.wire.send(pa);
    s.key.append(privacy_amplify(s.bits.slice(chunk.offset, chunk.bits), pa));
  }
  co_return kNone;
}

StageHalf bob_privacy_amplification(Side& s) {
  for (const PaChunk& chunk : pa_chunks(s.bits.size())) {
    const auto pa = co_await s.wire.recv<wire::PaParamsPacket>();
    if (!fits(pa, chunk)) co_return s.wire.abort(kVerifyFailed);
    s.key.append(privacy_amplify(s.bits.slice(chunk.offset, chunk.bits), pa));
  }
  // Once Alice's sends are in (in process the runner moves her first), a
  // packet past his last chunk means her layout is not his.
  co_await std::suspend_always{};
  co_return s.wire.next_is(wire::PacketType::kPaParams)
      ? s.wire.abort(kVerifyFailed)
      : kNone;
}

// ---- Auth-replenish: each side tags everything it sent this batch, Alice
// first, and checks the peer's tag against everything it received (Sec.
// 5). Bob answers only a tag that passes, so Alice's passing his means
// both did. Once the batch is accepted, the pads are repaid from the key
// (take_pad_share). --------------------------------------------------------

wire::TranscriptTag transcript_tag(Side& s) {
  return {.tag = s.party.auth.tag(s.wire.sent().bytes())};
}

bool passes(Side& s, const wire::TranscriptTag& theirs) {
  return s.party.auth.verify(s.wire.received().bytes(), theirs.tag);
}

StageHalf alice_auth_replenish(Side& s) {
  co_await s.wire.send(transcript_tag(s));
  const auto theirs = co_await s.wire.recv<wire::TranscriptTag>();
  co_return passes(s, theirs) ? kNone : s.wire.abort(kVerifyFailed);
}

StageHalf bob_auth_replenish(Side& s) {
  const auto theirs = co_await s.wire.recv<wire::TranscriptTag>();
  if (!passes(s, theirs)) co_return s.wire.abort(kVerifyFailed);
  co_await s.wire.send(transcript_tag(s));
  co_return kNone;
}

constexpr StageHalves kFig9[] = {
    {"sifting", alice_sifting, bob_sifting},
    {"sampling", alice_sampling, bob_sampling},
    {"error-correction", alice_error_correction, bob_error_correction},
    {"verify", alice_verify, bob_verify},
    {"entropy", alice_entropy, bob_entropy},
    {"privacy-amplification", alice_privacy_amplification,
     bob_privacy_amplification},
    {"auth-replenish", alice_auth_replenish, bob_auth_replenish},
};

/// A stage of the in-process session: both halves, interleaved.
class DialogueStage final : public PipelineStage {
 public:
  explicit DialogueStage(const StageHalves& halves) : halves_(halves) {}

  const char* name() const override { return halves_.name; }

  AbortReason run(BatchContext& ctx) override {
    StageHalf alice = halves_.alice(ctx.alice);
    StageHalf bob = halves_.bob(ctx.bob);
    const AbortReason reason =
        interleave(alice, ctx.alice.wire, bob, ctx.bob.wire);
    ctx.result.control_messages = ctx.alice.wire.traffic().messages +
                                  ctx.bob.wire.traffic().messages;
    ctx.result.control_bytes =
        ctx.alice.wire.traffic().bytes + ctx.bob.wire.traffic().bytes;
    return reason;
  }

 private:
  const StageHalves& halves_;
};

}  // namespace

std::span<const StageHalves> fig9_dialogue() { return kFig9; }

std::vector<std::unique_ptr<PipelineStage>> default_pipeline() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  for (const StageHalves& halves : kFig9)
    stages.push_back(std::make_unique<DialogueStage>(halves));
  return stages;
}

qkd::crypto::Drbg batch_drbg(std::uint64_t seed, std::uint64_t frame_id) {
  Bytes material;
  put_u64(material, seed ^ 0xD15711ULL);
  put_u64(material, frame_id);
  return qkd::crypto::Drbg(material);
}

qkd::BitVector take_pad_share(Side& s) {
  const std::size_t owed = std::min(s.party.auth.pad_bits_owed(), s.key.size());
  qkd::BitVector share = s.key.slice(s.key.size() - owed, owed);
  s.key.resize(s.key.size() - owed);
  return share;
}

Bytes digest_bytes(const qkd::BitVector& bits) {
  const auto digest = qkd::crypto::Sha1::hash(bits.to_bytes());
  return Bytes(digest.begin(), digest.end());
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

}  // namespace qkd::proto
