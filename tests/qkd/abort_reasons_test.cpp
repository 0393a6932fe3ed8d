// One forced scenario per AbortReason, with the totals histogram asserted
// against the per-batch outcomes — the observability contract operators use
// to tell *why* a distillation target was missed (pad exhaustion vs.
// eavesdropping vs. loss vs. entropy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/qkd/engine.hpp"

namespace qkd::proto {
namespace {

QkdLinkConfig base_config(std::size_t frame_slots = 1 << 20) {
  QkdLinkConfig config;
  config.frame_slots = frame_slots;
  return config;
}

std::size_t histogram_sum(const SessionTotals& totals) {
  return std::accumulate(totals.by_reason.begin(), totals.by_reason.end(),
                         std::size_t{0});
}

TEST(AbortReasons, AuthExhaustedWhenPrepositionedPadIsTiny) {
  // No pad runway beyond the structural minimum: the first batch's control
  // traffic drains the one-time pads mid-flight (the Sec. 2 exhaustion DoS).
  QkdLinkConfig config = base_config(1 << 16);
  config.preposition_extra_bits = 0;
  QkdLinkSession session(config, 1);
  const BatchResult batch = session.run_batch();
  EXPECT_FALSE(batch.accepted);
  EXPECT_EQ(batch.reason, AbortReason::kAuthExhausted);
  EXPECT_EQ(session.totals().aborted(AbortReason::kAuthExhausted), 1u);
}

TEST(AbortReasons, QberTooHighUnderInterceptResend) {
  QkdLinkSession session(base_config(), 5);
  qkd::optics::InterceptResendAttack eve(1.0);
  const BatchResult batch = session.run_batch(&eve);
  EXPECT_EQ(batch.reason, AbortReason::kQberTooHigh);
  EXPECT_EQ(session.totals().aborted(AbortReason::kQberTooHigh), 1u);
  // The histogram and the legacy counter agree.
  EXPECT_EQ(session.totals().aborted_qber(), 1u);
}

TEST(AbortReasons, EntropyExhaustedOnHighLossLink) {
  // 50 km of fiber: the handful of surviving sifted bits cannot out-distill
  // the deductions (defense + multi-photon + confidence margin). About
  // 53 % of such batches end here (532 of 1,000 over seeds 1-250); most
  // others fail verify first, when Cascade leaves a residual error in ~250
  // bits. Asserted as a law over 48 batches: at least 6 exhaust entropy,
  // and the histogram and the legacy counter both count each of them. With
  // p = 0.53, P(X <= 5) ~ 6e-10 is the false-failure rate.
  QkdLinkConfig config = base_config();
  config.link.fiber_km = 50.0;
  QkdLinkSession session(config, 6);
  std::size_t exhausted = 0;
  for (int i = 0; i < 48; ++i)
    exhausted +=
        session.run_batch().reason == AbortReason::kEntropyExhausted;
  EXPECT_GE(exhausted, 6u);
  EXPECT_EQ(session.totals().aborted(AbortReason::kEntropyExhausted),
            exhausted);
  EXPECT_EQ(session.totals().aborted_entropy(), exhausted);
}

TEST(AbortReasons, NoSiftedBitsOnDeadQuietCutChannel) {
  QkdLinkConfig config = base_config(1 << 16);
  config.link.dark_count_prob = 0.0;
  QkdLinkSession session(config, 7);
  qkd::optics::ChannelCutAttack cut;
  const BatchResult batch = session.run_batch(&cut);
  EXPECT_EQ(batch.reason, AbortReason::kNoSiftedBits);
  EXPECT_EQ(session.totals().aborted(AbortReason::kNoSiftedBits), 1u);
}

TEST(AbortReasons, VerifyFailedOnNaiveParityResiduals) {
  QkdLinkConfig config = base_config();
  config.ec_strategy = EcStrategy::kNaiveParity;
  QkdLinkSession session(config, 10);
  std::size_t verify_failures = 0;
  for (int i = 0; i < 5; ++i)
    verify_failures +=
        session.run_batch().reason == AbortReason::kVerifyFailed;
  EXPECT_GT(verify_failures, 0u);
  EXPECT_EQ(session.totals().aborted(AbortReason::kVerifyFailed),
            verify_failures);
}

TEST(AbortReasons, EcNotConvergedWhenRoundLimitIsStarved) {
  // One BBN round over a 6 % QBER frame cannot clear ~90 errors.
  QkdLinkConfig config = base_config();
  config.ec_strategy = EcStrategy::kBbnCascade;
  config.bbn_config.max_rounds = 1;
  QkdLinkSession session(config, 16);
  const BatchResult batch = session.run_batch();
  EXPECT_EQ(batch.reason, AbortReason::kEcNotConverged);
  EXPECT_EQ(session.totals().aborted(AbortReason::kEcNotConverged), 1u);
  EXPECT_EQ(session.totals().aborted_verify(), 1u);
}

TEST(AbortReasons, EveryBatchEndsOnACorruptingChannel) {
  // Parity responses travel untagged, so one altered in transit that still
  // decodes hands Cascade a wrong parity; a tagged frame altered in transit
  // fails its check. Whatever the channel does to the bytes, every batch
  // must end, accepted or aborted, and be counted once.
  QkdLinkSession session(base_config(), 9);
  session.channel().set_impairment(qkd::net::make_corrupt_impairment(0.05, 5));
  constexpr std::size_t kBatches = 24;
  for (std::size_t i = 0; i < kBatches; ++i) session.run_batch();
  const SessionTotals& totals = session.totals();
  EXPECT_EQ(totals.batches, kBatches);
  EXPECT_EQ(histogram_sum(totals), kBatches);
  // On this seed a wrong parity reaches Cascade (batch 8 never ended
  // before the corrector bounded its fixes).
  EXPECT_GT(totals.aborted(AbortReason::kEcNotConverged), 0u);
}

/// Whether `batch` got as far as judging its error-rate sample.
bool judged_sample(const BatchResult& batch) {
  for (std::size_t i = 0; i < batch.stages.size(); ++i)
    if (batch.stages[i].name == "sampling")
      return i + 1 < batch.stages.size() ||
             batch.reason == AbortReason::kQberTooHigh;
  return false;
}

TEST(AbortReasons, ACorruptingChannelLeavesNoDesyncBehind) {
  // 60 batches on a byte-corrupting channel, then 60 on a clean one. Every
  // batch keys its own draws, so nothing the corrupting leg did outlives
  // the batch it did it in:
  //  - on every batch that judges its sample, the sampled QBER lies within
  //    5 binomial sigma of the true one (at ~75 sampled bits and ~6 % QBER
  //    the upper tail past 5 sigma has probability below 1e-4 a batch);
  //  - the clean leg accepts as many batches as a fresh session on the
  //    same seed, within 5 sigma of the difference of two 60-batch counts
  //    at the fresh session's accept rate, and never by less than 2;
  //  - the two sides' pads hold the same number of bits after every batch.
  QkdLinkConfig config = base_config();
  config.preposition_extra_bits = 1 << 22;  // runway for the aborted batches
  constexpr std::size_t kLeg = 60;
  QkdLinkSession session(config, 1);
  session.channel().set_impairment(qkd::net::make_corrupt_impairment(0.2, 2));
  std::size_t recovered = 0;
  for (std::size_t i = 0; i < 2 * kLeg; ++i) {
    SCOPED_TRACE(i);
    if (i == kLeg) session.channel().set_impairment({});
    const BatchResult batch = session.run_batch();
    if (judged_sample(batch)) {
      const double p = batch.qber_actual;
      const double sigma =
          std::sqrt(p * (1.0 - p) / static_cast<double>(batch.sampled_bits));
      EXPECT_LE(std::abs(batch.qber_sampled - p), 5.0 * sigma)
          << abort_reason_name(batch.reason);
    }
    EXPECT_EQ(session.alice_auth().pad_bits_available(),
              session.bob_auth().pad_bits_available());
    if (i >= kLeg) recovered += batch.accepted;
  }

  QkdLinkSession fresh(config, 1);
  std::size_t fresh_accepted = 0;
  for (std::size_t i = 0; i < kLeg; ++i)
    fresh_accepted += fresh.run_batch().accepted;
  const double rate =
      static_cast<double>(fresh_accepted) / static_cast<double>(kLeg);
  const double bound = std::max(
      2.0, 5.0 * std::sqrt(2.0 * kLeg * rate * (1.0 - rate)));
  EXPECT_LE(std::abs(static_cast<double>(recovered) -
                     static_cast<double>(fresh_accepted)),
            bound)
      << recovered << " of " << kLeg << " after the corrupting leg, "
      << fresh_accepted << " fresh";
}

TEST(AbortReasons, HistogramSumsToBatchesAndCountsAcceptance) {
  QkdLinkSession session(base_config(), 15);
  qkd::optics::InterceptResendAttack eve(1.0);
  session.run_batch();        // accepted at this operating point
  session.run_batch(&eve);    // qber alarm
  session.run_batch();        // accepted again
  const SessionTotals& totals = session.totals();
  EXPECT_EQ(histogram_sum(totals), totals.batches);
  EXPECT_EQ(totals.aborted(AbortReason::kNone), totals.accepted_batches);
  EXPECT_EQ(totals.aborted(AbortReason::kQberTooHigh), 1u);
}

TEST(AbortReasons, DistillReportsWhyTheTargetWasMissed) {
  // distill() used to swallow per-batch outcomes; the outcome histogram now
  // says *why* a request came back short.
  QkdLinkSession session(base_config(), 6);
  qkd::optics::InterceptResendAttack eve(1.0);
  const DistillOutcome outcome = session.distill(4096, 3, &eve);
  EXPECT_FALSE(outcome.reached_target);
  EXPECT_TRUE(outcome.key.empty());
  EXPECT_EQ(outcome.batches_run, 3u);
  EXPECT_EQ(outcome.aborted(AbortReason::kQberTooHigh), 3u);
}

TEST(AbortReasons, DistillOutcomeCountsAcceptedBatches) {
  QkdLinkSession session(base_config(), 12);
  const DistillOutcome outcome = session.distill(512, 24);
  EXPECT_TRUE(outcome.reached_target);
  EXPECT_EQ(outcome.key.size(), 512u);
  EXPECT_GT(outcome.aborted(AbortReason::kNone), 0u);
  std::size_t sum = std::accumulate(outcome.by_reason.begin(),
                                    outcome.by_reason.end(), std::size_t{0});
  EXPECT_EQ(sum, outcome.batches_run);
}

}  // namespace
}  // namespace qkd::proto
