// End-to-end pipeline tests: raw Qframes through sifting, error correction,
// entropy estimation, privacy amplification and authentication.
#include "src/qkd/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qkd::proto {
namespace {

QkdLinkConfig fast_config() {
  QkdLinkConfig config;
  config.frame_slots = 1 << 20;  // ~1 s of link time at 1 MHz
  return config;
}

TEST(QkdLinkSession, HappyPathProducesKey) {
  QkdLinkSession session(fast_config(), 1);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  EXPECT_GT(batch.sifted_bits, 100u);
  EXPECT_GT(batch.distilled_bits, 0u);
  EXPECT_EQ(batch.key.size(), batch.distilled_bits);
  EXPECT_LT(batch.distilled_bits, batch.sifted_bits);
}

TEST(QkdLinkSession, QberLandsInPaperWindow) {
  QkdLinkSession session(fast_config(), 2);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted);
  EXPECT_GT(batch.qber_actual, 0.04);
  EXPECT_LT(batch.qber_actual, 0.10);
  // The sampled estimate should be in the same neighborhood (it is a small
  // sample, so the tolerance is statistical, ~3 sigma).
  EXPECT_NEAR(batch.qber_sampled, batch.qber_actual, 0.08);
}

TEST(QkdLinkSession, ErrorsAreFullyCorrected) {
  // If the verify step passed, the distilled keys are identical by
  // construction; this asserts the pipeline doesn't silently diverge.
  QkdLinkSession session(fast_config(), 3);
  for (int i = 0; i < 3; ++i) {
    const BatchResult batch = session.run_batch();
    if (batch.accepted) {
      EXPECT_GT(batch.errors_corrected, 0u);  // 6-8 % QBER must show up
      EXPECT_GT(batch.disclosed_bits, 0u);
    } else {
      ADD_FAILURE() << "batch rejected: " << abort_reason_name(batch.reason);
    }
  }
}

TEST(QkdLinkSession, DistilledRateNearPaperOperatingPoint) {
  // Sec. 2: "Today's QKD systems achieve on the order of 1,000 bits/second
  // throughput for keying material ... and often run at much lower rates."
  // At the 1 MHz trigger with 6 % QBER and conservative estimates the
  // distilled rate lands at hundreds of bps; the 5 MHz hardware maximum
  // reaches the ~1 kbps headline (bench E3 sweeps this).
  QkdLinkSession session(fast_config(), 4);
  for (int i = 0; i < 6; ++i) session.run_batch();
  const double rate = session.totals().distilled_rate_bps();
  EXPECT_GT(rate, 80.0);
  EXPECT_LT(rate, 5000.0);
}

TEST(QkdLinkSession, InterceptResendTripsQberAlarm) {
  // Full interception pushes QBER to ~25 + 6 % >> the 11 % abort threshold:
  // the batch must be rejected and no key delivered — the headline security
  // property of Sec. 1.
  QkdLinkSession session(fast_config(), 5);
  qkd::optics::InterceptResendAttack eve(1.0);
  const BatchResult batch = session.run_batch(&eve);
  EXPECT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kQberTooHigh);
  EXPECT_EQ(batch.distilled_bits, 0u);
  EXPECT_EQ(session.totals().aborted_qber(), 1u);
}

TEST(QkdLinkSession, MildInterceptionSurvivesButCostsKey) {
  // A 10 % intercept fraction adds ~2.5 % QBER: below the alarm, but the
  // entropy estimate must charge for it, shrinking the distilled output.
  QkdLinkSession clean_session(fast_config(), 6);
  QkdLinkSession attacked_session(fast_config(), 6);
  qkd::optics::InterceptResendAttack eve(0.10);
  std::size_t clean_bits = 0, attacked_bits = 0;
  for (int i = 0; i < 4; ++i) {
    clean_bits += clean_session.run_batch().distilled_bits;
    attacked_bits += attacked_session.run_batch(&eve).distilled_bits;
  }
  EXPECT_GT(clean_bits, 0u);
  EXPECT_LT(attacked_bits, clean_bits);
}

TEST(QkdLinkSession, ChannelCutYieldsNoKeyButNoFalseAlarm) {
  QkdLinkConfig config = fast_config();
  config.link.dark_count_prob = 0.0;  // a dead-quiet cut channel
  QkdLinkSession session(config, 7);
  qkd::optics::ChannelCutAttack cut;
  const BatchResult batch = session.run_batch(&cut);
  EXPECT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kNoSiftedBits);
}

TEST(QkdLinkSession, PnsInvisibleInQberButChargedByWorstCasePolicy) {
  // PNS induces no errors, so the QBER alarm stays silent. Under the
  // worst-case multi-photon policy the entropy estimate refuses to distill
  // anything at this operating point — the historically correct verdict for
  // pre-decoy weak-coherent links.
  QkdLinkConfig config = fast_config();
  config.multi_photon_policy = MultiPhotonPolicy::kTransmittedWorstCase;
  QkdLinkSession session(config, 8);
  qkd::optics::PhotonNumberSplittingAttack pns;
  const BatchResult batch = session.run_batch(&pns);
  EXPECT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kEntropyExhausted);
  EXPECT_LT(batch.qber_actual, 0.10);  // the attack itself stayed invisible
}

TEST(QkdLinkSession, PracticalPolicyUnderchargesIdealPns) {
  // Under the practical 2003-era beamsplitting accounting the pipeline
  // delivers key even while an ideal PNS adversary holds more sifted bits
  // than the multi-photon term charged — the vulnerability the paper cites
  // (Sec. 6) as motivation for the entangled-photon link. Ground truth from
  // the attack record makes the gap measurable.
  QkdLinkSession session(fast_config(), 8);
  qkd::optics::PhotonNumberSplittingAttack pns;
  const BatchResult batch = session.run_batch(&pns);
  ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
  EXPECT_GT(batch.distilled_bits, 0u);
  EXPECT_GT(batch.eve_known_sifted, 0u);
  const double charged =
      static_cast<double>(batch.sifted_bits) *
      conditional_multi_photon_probability(
          session.config().link.mean_photon_number);
  // Eve's actual take exceeds the per-sifted-bit charge because detection
  // favors multi-photon pulses (they are brighter).
  EXPECT_GT(static_cast<double>(batch.eve_known_sifted), 0.8 * charged);
}

TEST(QkdLinkSession, AllEcStrategiesDeliverKeyOnTunedLink) {
  // On a well-tuned interferometer (~2 % QBER) both Cascades leave positive
  // yield; at the 6-8 % operating point the BBN variant's disclosure
  // consumes the entropy budget (see QkdLinkConfig::ec_strategy docs).
  for (EcStrategy strategy :
       {EcStrategy::kBbnCascade, EcStrategy::kClassicCascade}) {
    QkdLinkConfig config = fast_config();
    config.link.interferometer_visibility = 0.97;
    config.ec_strategy = strategy;
    QkdLinkSession session(config, 9);
    const BatchResult batch = session.run_batch();
    EXPECT_TRUE(batch.accepted)
        << static_cast<int>(strategy) << ": "
        << abort_reason_name(batch.reason);
    EXPECT_GT(batch.distilled_bits, 0u);
  }
}

TEST(QkdLinkSession, BbnVariantExhaustsEntropyAtHighQber) {
  // The reproduction's headline negative result: the paper's own
  // error-correction variant at the paper's own 6-8 % QBER operating point
  // discloses about as much as the batch holds. At 2^20 slots (~1,500
  // sifted bits) about 46 % of batches exhaust the entropy estimate
  // outright (461 of 1,000 over seeds 1-250) and the rest squeeze out a
  // small key. Asserted as a law over 48 batches: at least 6 exhaust. With
  // p = 0.46, P(X <= 5) ~ 1.3e-7 is the false-failure rate.
  QkdLinkConfig config = fast_config();
  config.ec_strategy = EcStrategy::kBbnCascade;
  QkdLinkSession session(config, 18);
  std::size_t exhausted = 0;
  for (int i = 0; i < 48; ++i)
    exhausted +=
        session.run_batch().reason == AbortReason::kEntropyExhausted;
  EXPECT_GE(exhausted, 6u);
  EXPECT_EQ(session.totals().aborted(AbortReason::kEntropyExhausted),
            exhausted);
}

TEST(QkdLinkSession, NaiveParityResidualsAreCaughtByVerify) {
  // The naive baseline leaves residual errors at 6-8 % QBER; the hash
  // comparison must catch them and reject the batch rather than hand
  // mismatched keys to IKE (the Sec. 7 failure IKE itself cannot detect).
  QkdLinkConfig config = fast_config();
  config.ec_strategy = EcStrategy::kNaiveParity;
  QkdLinkSession session(config, 10);
  int verify_failures = 0, accepted = 0;
  for (int i = 0; i < 5; ++i) {
    const BatchResult batch = session.run_batch();
    verify_failures += batch.reason == AbortReason::kVerifyFailed;
    accepted += batch.accepted;
  }
  EXPECT_GT(verify_failures, 0);
  // Whatever was accepted must have been truly equal (PA would have thrown).
  (void)accepted;
}

TEST(QkdLinkSession, BennettOutDistillsSlutsky) {
  QkdLinkConfig config = fast_config();
  config.defense = DefenseFunction::kBennett;
  QkdLinkSession bennett(config, 11);
  config.defense = DefenseFunction::kSlutsky;
  QkdLinkSession slutsky(config, 11);
  std::size_t bennett_bits = 0, slutsky_bits = 0;
  for (int i = 0; i < 3; ++i) {
    bennett_bits += bennett.run_batch().distilled_bits;
    slutsky_bits += slutsky.run_batch().distilled_bits;
  }
  EXPECT_GT(bennett_bits, slutsky_bits);
}

TEST(QkdLinkSession, DistillBitsAccumulatesRequestedAmount) {
  QkdLinkSession session(fast_config(), 12);
  const qkd::BitVector key = session.distill_bits(1024, 24);
  EXPECT_EQ(key.size(), 1024u);
  EXPECT_GT(session.totals().accepted_batches, 0u);
}

TEST(QkdLinkSession, ControlTrafficIsAccounted) {
  QkdLinkSession session(fast_config(), 13);
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted);
  EXPECT_GT(batch.control_messages, 4u);  // sift, response, sample, hash, PA
  EXPECT_GT(batch.control_bytes, 100u);
}

TEST(QkdLinkSession, AuthenticationPadsAreReplenishedFromDistilledKey) {
  // An accepted batch spends one 32-bit tag's pad in each direction and
  // repays exactly those 64 bits from its key, which is delivered net of
  // them: the runway is where it started.
  QkdLinkSession session(fast_config(), 14);
  const AuthenticationService& alice = session.alice_auth();
  const std::size_t before = alice.pad_bits_available();
  const BatchResult batch = session.run_batch();
  ASSERT_TRUE(batch.accepted);
  EXPECT_EQ(alice.pad_bits_consumed(), 64u);
  EXPECT_EQ(alice.pad_bits_owed(), 0u);
  EXPECT_EQ(alice.pad_bits_available(), before);
  EXPECT_EQ(session.bob_auth().pad_bits_available(), before);
  EXPECT_EQ(batch.distilled_bits, batch.key.size());
  EXPECT_EQ(alice.stats().tagged, 1u);
  EXPECT_EQ(alice.stats().verified, 1u);
}

TEST(QkdLinkSession, RejectsBadSampleFraction) {
  QkdLinkConfig config = fast_config();
  config.sample_fraction = 1.0;
  EXPECT_THROW(QkdLinkSession(config, 1), std::invalid_argument);
}

TEST(QkdLinkSession, TotalsAggregateAcrossBatches) {
  QkdLinkSession session(fast_config(), 15);
  for (int i = 0; i < 3; ++i) session.run_batch();
  const SessionTotals& totals = session.totals();
  EXPECT_EQ(totals.batches, 3u);
  EXPECT_EQ(totals.pulses, 3u * (1u << 20));
  EXPECT_GT(totals.duration_s, 1.0);
  EXPECT_GT(totals.distilled_bits, 0u);
}

TEST(QkdLinkSession, BoundMetricsExportFrameWallTimeBesideTheStages) {
  // The Qframe runs before the stage loop; the registry shows its wall
  // time next to each stage's, so the physical layer is not missing from
  // a scrape.
  obs::MetricsRegistry registry;
  QkdLinkSession session(fast_config(), 16);
  session.bind_metrics(registry, "qkd_link");
  const BatchResult batch = session.run_batch();
  const std::string dump = registry.to_prometheus();
  EXPECT_NE(dump.find("qkd_link_frame_wall_us "), std::string::npos) << dump;
  EXPECT_NE(dump.find("qkd_link_stage_sifting_wall_us "), std::string::npos)
      << dump;
  std::uint64_t frame_us = 0;
  for (const obs::MetricSample& sample : registry.snapshot())
    if (sample.name == "qkd_link_frame_wall_us")
      frame_us = static_cast<std::uint64_t>(sample.value);
  EXPECT_EQ(frame_us, static_cast<std::uint64_t>(batch.frame_wall_s * 1e6));
}

TEST(QkdLinkSession, GroundTruthEqualsANaiveRecountOverSiftedClicks) {
  // qber_actual and eve_known_sifted come from a lockstep join of the
  // frame's clicks with the sifted slots. A link built from the session's
  // parameters and seed replays the session's frames, so each batch's
  // ground truth can be recounted click by click.
  QkdLinkConfig config = fast_config();
  config.frame_slots = 1 << 18;
  for (double fraction : {0.0, 0.3, 1.0}) {
    SCOPED_TRACE("intercept fraction=" + std::to_string(fraction));
    const std::uint64_t seed = 11;
    QkdLinkSession session(config, seed);
    qkd::optics::WeakCoherentLink replay(config.link, seed);
    qkd::optics::InterceptResendAttack session_eve(fraction);
    qkd::optics::InterceptResendAttack replay_eve(fraction);
    qkd::optics::Attack* attack = fraction > 0.0 ? &session_eve : nullptr;
    qkd::optics::Attack* replay_attack =
        fraction > 0.0 ? &replay_eve : nullptr;
    for (int i = 0; i < 3; ++i) {
      const BatchResult batch = session.run_batch(attack);
      const qkd::optics::FrameResult frame =
          replay.run_frame(config.frame_slots, replay_attack);
      ASSERT_EQ(frame.clicks.size(), batch.detections);
      std::size_t sifted = 0, errors = 0, known = 0;
      for (const qkd::optics::Click& click : frame.clicks) {
        if (click.alice_basis != click.bob_basis) continue;
        ++sifted;
        errors += click.alice_value != click.bob_bit;
        known += std::binary_search(frame.eve.known.begin(),
                                    frame.eve.known.end(), click.slot);
      }
      ASSERT_EQ(sifted, batch.sifted_bits);
      ASSERT_GT(sifted, 0u);
      EXPECT_EQ(batch.qber_actual, static_cast<double>(errors) /
                                       static_cast<double>(sifted));
      EXPECT_EQ(batch.eve_known_sifted, known);
      if (fraction > 0.0) {
        EXPECT_GT(known, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace qkd::proto
