// Stage-pipeline decomposition tests: the ordered PipelineStage run behind
// run_batch(), per-stage accounting, determinism, and stage swapping.
#include "src/qkd/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/net/channel_transport.hpp"
#include "src/qkd/privacy.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::proto {
namespace {

QkdLinkConfig fast_config() {
  QkdLinkConfig config;
  config.frame_slots = 1 << 20;
  return config;
}

TEST(Pipeline, DefaultOrderIsTheFig9Stack) {
  QkdLinkSession session(fast_config(), 1);
  const auto& stages = session.pipeline();
  ASSERT_EQ(stages.size(), 7u);
  const char* expected[] = {"sifting",
                            "sampling",
                            "error-correction",
                            "verify",
                            "entropy",
                            "privacy-amplification",
                            "auth-replenish"};
  for (std::size_t i = 0; i < stages.size(); ++i)
    EXPECT_STREQ(stages[i]->name(), expected[i]) << i;
}

TEST(Pipeline, StageStatsCoverTheWholeBatch) {
  QkdLinkSession session(fast_config(), 2);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  ASSERT_EQ(batch.stages.size(), 7u);

  // Every control byte of the batch is attributed to exactly one stage.
  std::size_t stage_bytes = 0, stage_messages = 0;
  for (const StageStats& stage : batch.stages) {
    EXPECT_GE(stage.wall_s, 0.0) << stage.name;
    stage_bytes += stage.control_bytes;
    stage_messages += stage.control_messages;
  }
  EXPECT_EQ(stage_bytes, batch.control_bytes);
  EXPECT_EQ(stage_messages, batch.control_messages);

  // The wire-heavy stages are the ones that actually shipped something.
  EXPECT_GT(batch.stages[0].control_messages, 0u);  // sifting: 2 messages
  EXPECT_GT(batch.stages[2].control_bytes, 0u);     // EC parity traffic
  EXPECT_EQ(batch.stages[4].control_bytes, 0u);     // entropy: local math only
}

TEST(Pipeline, FrameTimeIsRecordedBesideTheStages) {
  // The physical layer runs before the first stage; its wall time is the
  // batch's frame_wall_s, not part of any stage.
  QkdLinkSession session(fast_config(), 2);
  const BatchResult batch = session.run_batch();
  EXPECT_GT(batch.frame_wall_s, 0.0);
  EXPECT_EQ(batch.stages.front().name, "sifting");
}

TEST(Pipeline, TracedBatchHasAFrameSpanBeforeItsStages) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  QkdLinkSession session(fast_config(), 2);
  session.set_tracer(&tracer);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);

  const std::vector<obs::Span> spans = tracer.spans();
  const obs::Span* root = nullptr;
  const obs::Span* frame = nullptr;
  for (const obs::Span& span : spans) {
    if (span.name == "qkd.batch") root = &span;
    if (span.name == "qkd.frame") frame = &span;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->parent_span, root->span_id);
  EXPECT_GE(frame->wall_start_ns, root->wall_start_ns);
  // One frame span plus one span per stage, all children of the batch, the
  // frame first.
  std::size_t children = 0;
  for (const obs::Span& span : spans) {
    if (span.parent_span != root->span_id) continue;
    ++children;
    if (&span != frame) {
      EXPECT_GE(span.wall_start_ns, frame->wall_end_ns);
    }
  }
  EXPECT_EQ(children, 1 + batch.stages.size());
  const auto detections = std::find_if(
      frame->attributes.begin(), frame->attributes.end(),
      [](const auto& kv) { return kv.first == "detections"; });
  ASSERT_NE(detections, frame->attributes.end());
  EXPECT_EQ(detections->second, std::to_string(batch.detections));

  // Untraced, the same session records nothing.
  session.set_tracer(nullptr);
  tracer.clear();
  session.run_batch();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Pipeline, AbortRecordsOnlyExecutedStages) {
  // Full interception (~31 % QBER) trips the sampled alarm inside
  // SamplingStage: the pipeline must stop there, leaving exactly the
  // stages that ran. The gate is set at 0.15 so the small-sample estimate
  // cannot wander above it.
  QkdLinkConfig config = fast_config();
  config.early_abort_qber = 0.15;
  QkdLinkSession session(config, 5);
  qkd::optics::InterceptResendAttack eve(1.0);
  const BatchResult batch = session.run_batch(&eve);
  ASSERT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kQberTooHigh);
  ASSERT_EQ(batch.stages.size(), 2u);
  EXPECT_EQ(batch.stages.back().name, "sampling");
}

TEST(Pipeline, SameSeedSameKeyStreamAcrossSessions) {
  // The pipeline decomposition must not perturb determinism: identical
  // config and seed give bit-identical key streams batch by batch.
  QkdLinkSession left(fast_config(), 11);
  QkdLinkSession right(fast_config(), 11);
  for (int i = 0; i < 3; ++i) {
    const BatchResult a = left.run_batch();
    const BatchResult b = right.run_batch();
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_TRUE(a.key == b.key) << "batch " << i;
  }
  EXPECT_EQ(left.totals().distilled_bits, right.totals().distilled_bits);
}

TEST(Pipeline, SamplingDrawsExactlyTheConfiguredFraction) {
  // A 60 % sample is the degenerate case for the old rejection loop (it
  // re-drew already-chosen positions more often than not); the
  // Fisher-Yates draw is O(n) and hits the target exactly.
  QkdLinkConfig config = fast_config();
  config.sample_fraction = 0.6;
  QkdLinkSession session(config, 3);
  const BatchResult batch = session.run_batch();
  ASSERT_GT(batch.sifted_bits, 0u);
  EXPECT_EQ(batch.sampled_bits,
            static_cast<std::size_t>(0.6 * static_cast<double>(
                                               batch.sifted_bits)));
}

TEST(Pipeline, SampleDrawIsOneLockstepMaskAndTheSplitKeepsOrder) {
  // Two DRBGs on one seed stand for the two sides: they draw the same
  // mask, with exactly the target set, and leave their streams in step.
  qkd::crypto::Drbg alice(11u), bob(11u);
  const qkd::BitVector mask = draw_sample_mask(1000, 50, alice);
  EXPECT_EQ(mask, draw_sample_mask(1000, 50, bob));
  EXPECT_EQ(mask.size(), 1000u);
  EXPECT_EQ(mask.popcount(), 50u);
  EXPECT_EQ(alice.next_u64(), bob.next_u64());

  const qkd::BitVector bits = qkd::BitVector::from_string("10110");
  const qkd::BitVector sample = qkd::BitVector::from_string("01100");
  qkd::BitVector sampled, kept;
  split_by_mask(bits, sample, sampled, kept);
  EXPECT_EQ(sampled, qkd::BitVector::from_string("01"));
  EXPECT_EQ(kept, qkd::BitVector::from_string("110"));
}

TEST(Pipeline, WordLevelSplitMatchesTheBitwiseSplit) {
  QKD_SEEDED_RNG(rng, 61);
  for (std::size_t n : {1u, 63u, 64u, 65u, 200u, 1459u}) {
    const qkd::BitVector bits = rng.next_bits(n);
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      qkd::BitVector mask(n);
      for (std::size_t i = 0; i < n; ++i)
        if (rng.next_bool(density)) mask.set(i, true);
      // Both outputs already hold bits, as they may in a caller.
      qkd::BitVector want_sampled{1}, want_kept{0, 1};
      for (std::size_t i = 0; i < n; ++i)
        (mask.get(i) ? want_sampled : want_kept).push_back(bits.get(i));
      qkd::BitVector sampled{1}, kept{0, 1};
      split_by_mask(bits, mask, sampled, kept);
      EXPECT_EQ(sampled, want_sampled) << n << " " << density;
      EXPECT_EQ(kept, want_kept) << n << " " << density;
    }
  }
  qkd::BitVector sampled, kept;
  EXPECT_THROW(split_by_mask(qkd::BitVector(5), qkd::BitVector(4), sampled,
                             kept),
               std::invalid_argument);
}

TEST(Pipeline, EachBatchKeysItsOwnDraws) {
  // The batch DRBG is a function of the shared seed and the frame id
  // alone: the two sides draw the same sample for a batch, and another
  // batch or another seed draws a different one.
  qkd::crypto::Drbg alice = batch_drbg(5, 7), bob = batch_drbg(5, 7);
  qkd::crypto::Drbg next = batch_drbg(5, 8), other = batch_drbg(6, 7);
  const qkd::BitVector mask = draw_sample_mask(1000, 50, alice);
  EXPECT_EQ(mask, draw_sample_mask(1000, 50, bob));
  EXPECT_NE(mask, draw_sample_mask(1000, 50, next));
  EXPECT_NE(mask, draw_sample_mask(1000, 50, other));
}

// ---- Bob's privacy amplification: he applies what Alice announced, once
// it fits the chunk he holds. ----------------------------------------------

const StageHalves& privacy_amplification() {
  for (const StageHalves& stage : fig9_dialogue())
    if (std::string(stage.name) == "privacy-amplification") return stage;
  throw std::logic_error("no privacy-amplification stage");
}

/// A stand-in for Alice's half: announces `packets`, whatever they are.
StageHalf announce(Side& s, std::vector<qkd::wire::PaParamsPacket> packets) {
  for (const qkd::wire::PaParamsPacket& pa : packets) co_await s.wire.send(pa);
  co_return AbortReason::kNone;
}

/// Two sides of one batch over an in-memory channel, each holding `bits`.
struct PaBatch {
  explicit PaBatch(const qkd::BitVector& bits) {
    alice.bits = bits;
    bob.bits = bits;
    DialogueWire::pair(alice.wire, bob.wire);
  }

  /// Runs `alice_half` against Bob's real half.
  AbortReason run(StageHalf alice_half) {
    StageHalf bob_half = privacy_amplification().bob(bob);
    return interleave(alice_half, alice.wire, bob_half, bob.wire);
  }

  QkdLinkConfig config;
  Party alice_party{config, 1, /*is_alice=*/true};
  Party bob_party{config, 1, /*is_alice=*/false};
  qkd::net::PublicChannel channel;
  qkd::net::ChannelTransport alice_io{channel,
                                      qkd::net::ChannelTransport::Side::kA};
  qkd::net::ChannelTransport bob_io{channel,
                                    qkd::net::ChannelTransport::Side::kB};
  qkd::optics::FrameResult frame;
  Side alice{config, alice_party, alice_io, /*is_alice=*/true, frame, 0};
  Side bob{config, bob_party, bob_io, /*is_alice=*/false, frame, 0};
};

/// What Bob's half makes of `packets` announced over `n` bits.
AbortReason bob_verdict(std::size_t n,
                        std::vector<qkd::wire::PaParamsPacket> packets) {
  PaBatch batch{qkd::BitVector(n)};
  return batch.run(announce(batch.alice, std::move(packets)));
}

TEST(Pipeline, EveryPaChunkGetsAPacketAndBobAdoptsThem) {
  // 9000 bits are three chunks (4096, 4096, 808). With one usable bit the
  // first two chunks' share of the output is 0 bits, and they still get
  // their packets, so Bob lays out the same chunks from his bit count.
  QKD_SEEDED_RNG(rng, 71);
  PaBatch batch(rng.next_bits(9000));
  batch.alice.usable_bits = 1.0;
  ASSERT_EQ(batch.run(privacy_amplification().alice(batch.alice)),
            AbortReason::kNone);
  EXPECT_EQ(batch.alice.wire.traffic().messages, 3u);
  EXPECT_EQ(batch.alice.key.size(), 1u);
  EXPECT_EQ(batch.bob.key, batch.alice.key);
}

TEST(Pipeline, BobRejectsAPaFieldThatIsNotHisChunks) {
  qkd::crypto::Drbg drbg(72u);
  EXPECT_EQ(bob_verdict(1000, {make_pa_params(2000, 100, drbg)}),
            AbortReason::kVerifyFailed);
  EXPECT_EQ(bob_verdict(1000, {make_pa_params(1000, 100, drbg)}),
            AbortReason::kNone);
}

TEST(Pipeline, BobRejectsAPaOutputLongerThanHisChunk) {
  // n = 1024 fits a 1000-bit chunk; m = 1010 does not.
  qkd::crypto::Drbg drbg(73u);
  const qkd::wire::PaParamsPacket pa = make_pa_params(1010, 1010, drbg);
  ASSERT_EQ(pa.n, pa_field_width(1000));
  EXPECT_EQ(bob_verdict(1000, {pa}), AbortReason::kVerifyFailed);
}

TEST(Pipeline, BobRejectsAPaModulusOtherThanTheFieldsPinnedOne) {
  // A canonical modulus of the right degree (the decoder takes it), but
  // not the pinned irreducible one.
  qkd::crypto::Drbg drbg(74u);
  qkd::wire::PaParamsPacket pa = make_pa_params(1000, 100, drbg);
  pa.modulus_exponents = {1024, 3, 0};
  ASSERT_NE(pa.modulus_exponents,
            qkd::crypto::irreducible_poly(1024).exponents);
  ASSERT_TRUE(qkd::wire::PaParamsPacket::decode(pa.encode()).ok());
  EXPECT_EQ(bob_verdict(1000, {pa}), AbortReason::kVerifyFailed);
}

TEST(Pipeline, BobRejectsPaPacketsWithAChunkMissing) {
  // 5000 bits are chunks of 4096 and 904. An Alice that skips the first
  // (as one that sent nothing for a 0-bit share would) announces the
  // second in its place.
  qkd::crypto::Drbg drbg(75u);
  EXPECT_EQ(bob_verdict(5000, {make_pa_params(904, 10, drbg)}),
            AbortReason::kVerifyFailed);
}

TEST(Pipeline, BobRejectsMorePaPacketsThanHeHasChunks) {
  qkd::crypto::Drbg drbg(76u);
  const qkd::wire::PaParamsPacket first = make_pa_params(1000, 100, drbg);
  const qkd::wire::PaParamsPacket extra = make_pa_params(1000, 100, drbg);
  EXPECT_EQ(bob_verdict(1000, {first, extra}), AbortReason::kVerifyFailed);
}

/// A do-nothing observer stage, to prove the pipeline is composable.
class TapStage final : public PipelineStage {
 public:
  explicit TapStage(int& counter) : counter_(counter) {}
  const char* name() const override { return "tap"; }
  AbortReason run(BatchContext& ctx) override {
    ++counter_;
    EXPECT_GT(ctx.frame.slots, 0u);
    return AbortReason::kNone;
  }

 private:
  int& counter_;
};

TEST(Pipeline, StagesCanBeSwappedAndInstrumented) {
  QkdLinkSession session(fast_config(), 4);
  int taps = 0;
  auto stages = default_pipeline();
  stages.insert(stages.begin(), std::make_unique<TapStage>(taps));
  session.set_pipeline(std::move(stages));

  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  EXPECT_EQ(taps, 1);
  ASSERT_EQ(batch.stages.size(), 8u);
  EXPECT_EQ(batch.stages.front().name, "tap");
  EXPECT_EQ(batch.stages.front().control_bytes, 0u);
}

}  // namespace
}  // namespace qkd::proto
