#include "src/optics/attacks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/optics/link.hpp"
#include "tests/testing/photon_tap.hpp"

namespace qkd::optics {
namespace {

struct SiftStats {
  std::size_t sifted = 0;
  std::size_t errors = 0;
  std::size_t eve_known_sifted = 0;
  double qber() const {
    return sifted ? static_cast<double>(errors) / sifted : 0.0;
  }
};

SiftStats sift_with_eve(const FrameResult& frame) {
  SiftStats out;
  for (const Click& click : frame.clicks) {
    if (click.alice_basis != click.bob_basis) continue;
    ++out.sifted;
    if (click.alice_value != click.bob_bit) ++out.errors;
    if (std::binary_search(frame.eve.known.begin(), frame.eve.known.end(),
                           click.slot))
      ++out.eve_known_sifted;
  }
  return out;
}

/// Eve's slot lists are strictly increasing: sorted, each slot once.
bool strictly_increasing(const std::vector<std::uint32_t>& slots) {
  return std::adjacent_find(slots.begin(), slots.end(),
                            std::greater_equal<>()) == slots.end();
}

LinkParams clean_params() {
  LinkParams params;
  params.interferometer_visibility = 1.0;  // isolate attack-induced errors
  params.dark_count_prob = 0.0;
  return params;
}

TEST(InterceptResend, FullInterceptionInducesTwentyFivePercentQber) {
  WeakCoherentLink link(clean_params(), 21);
  InterceptResendAttack attack(1.0);
  SiftStats total;
  for (int i = 0; i < 4; ++i) {
    const SiftStats s = sift_with_eve(link.run_frame(400000, &attack));
    total.sifted += s.sifted;
    total.errors += s.errors;
  }
  ASSERT_GT(total.sifted, 1000u);
  EXPECT_NEAR(total.qber(), 0.25, 0.02);
}

TEST(InterceptResend, PartialInterceptionScalesLinearly) {
  WeakCoherentLink link(clean_params(), 23);
  InterceptResendAttack attack(0.4);
  SiftStats total;
  for (int i = 0; i < 4; ++i) {
    const SiftStats s = sift_with_eve(link.run_frame(400000, &attack));
    total.sifted += s.sifted;
    total.errors += s.errors;
  }
  EXPECT_NEAR(total.qber(), 0.4 * 0.25, 0.02);
}

TEST(InterceptResend, EveKnowsHalfOfInterceptedSiftedBits) {
  // Eve's basis matches Alice's half the time; only then is her stored
  // result the true bit.
  WeakCoherentLink link(clean_params(), 25);
  InterceptResendAttack attack(1.0);
  SiftStats total;
  for (int i = 0; i < 4; ++i) {
    const SiftStats s = sift_with_eve(link.run_frame(400000, &attack));
    total.sifted += s.sifted;
    total.eve_known_sifted += s.eve_known_sifted;
  }
  EXPECT_NEAR(
      static_cast<double>(total.eve_known_sifted) / total.sifted, 0.5, 0.05);
}

TEST(InterceptResend, RejectsBadFraction) {
  EXPECT_THROW(InterceptResendAttack(-0.1), std::invalid_argument);
  EXPECT_THROW(InterceptResendAttack(1.1), std::invalid_argument);
}

TEST(Beamsplit, TransparentButLeaky) {
  // A 30 % tap adds loss but no errors, and Eve learns bits.
  WeakCoherentLink tapped(clean_params(), 27);
  WeakCoherentLink clean(clean_params(), 27);
  BeamsplitAttack attack(0.3);
  SiftStats tapped_stats, clean_stats;
  for (int i = 0; i < 4; ++i) {
    const SiftStats s = sift_with_eve(tapped.run_frame(300000, &attack));
    tapped_stats.sifted += s.sifted;
    tapped_stats.errors += s.errors;
    tapped_stats.eve_known_sifted += s.eve_known_sifted;
    const SiftStats c = sift_with_eve(clean.run_frame(300000));
    clean_stats.sifted += c.sifted;
    clean_stats.errors += c.errors;
  }
  EXPECT_LT(tapped_stats.qber(), 0.01);            // no induced errors
  EXPECT_LT(tapped_stats.sifted, clean_stats.sifted);  // but extra loss
  EXPECT_GT(tapped_stats.eve_known_sifted, 0u);        // and leakage
}

TEST(Beamsplit, RejectsBadRatio) {
  EXPECT_THROW(BeamsplitAttack(1.5), std::invalid_argument);
}

TEST(Pns, SilentOnSinglePhotonPulses) {
  // With mu -> small, almost no multi-photon pulses: PNS gains ~nothing.
  LinkParams params = clean_params();
  params.mean_photon_number = 0.01;
  WeakCoherentLink link(params, 29);
  PhotonNumberSplittingAttack attack;
  const FrameResult frame = link.run_frame(200000, &attack);
  EXPECT_LT(frame.eve.photons_captured, 25u);  // ~ n * mu^2/2 = 10 expected
}

TEST(Pns, CapturesEveryMultiPhotonPulse) {
  LinkParams params = clean_params();
  params.mean_photon_number = 0.5;  // plenty of multi-photon pulses
  WeakCoherentLink link(params, 31);
  PhotonNumberSplittingAttack attack;
  qkd::testing::PhotonTap tap(&attack);
  const FrameResult frame = tap.run(link, 100000);
  std::size_t multi = 0;
  for (unsigned c : tap.photons()) multi += c >= 2;
  EXPECT_EQ(frame.eve.photons_captured, multi);
  EXPECT_EQ(frame.eve.known.size(), multi);
}

TEST(Pns, InducesNoErrors) {
  WeakCoherentLink link(clean_params(), 33);
  PhotonNumberSplittingAttack attack;
  SiftStats total;
  for (int i = 0; i < 4; ++i) {
    const SiftStats s = sift_with_eve(link.run_frame(300000, &attack));
    total.sifted += s.sifted;
    total.errors += s.errors;
  }
  ASSERT_GT(total.sifted, 500u);
  EXPECT_LT(total.qber(), 0.01);
}

TEST(ChannelCut, BlocksEverything) {
  WeakCoherentLink link(clean_params(), 35);
  ChannelCutAttack attack;
  link.run_frame(200000, &attack);
  EXPECT_EQ(link.stats().signal_clicks, 0u);
}

TEST(ChannelCut, DarkCountsStillFire) {
  // A cut channel looks like a dead link, not a quiet one: darks remain.
  LinkParams params;
  params.dark_count_prob = 1e-3;
  WeakCoherentLink link(params, 37);
  ChannelCutAttack attack;
  link.run_frame(100000, &attack);
  EXPECT_GT(link.stats().dark_only_clicks, 0u);
  EXPECT_EQ(link.stats().signal_clicks, 0u);
}

TEST(Composite, AppliesAllStages) {
  WeakCoherentLink link(clean_params(), 39);
  CompositeAttack attack;
  attack.add(std::make_unique<PhotonNumberSplittingAttack>());
  attack.add(std::make_unique<InterceptResendAttack>(0.5));
  SiftStats total;
  std::size_t captured = 0;
  for (int i = 0; i < 4; ++i) {
    const FrameResult frame = link.run_frame(300000, &attack);
    const SiftStats s = sift_with_eve(frame);
    total.sifted += s.sifted;
    total.errors += s.errors;
    captured += frame.eve.photons_captured;
    // Both stages mark a multi-photon slot they both attack; the record
    // still lists it once.
    EXPECT_TRUE(strictly_increasing(frame.eve.attacked));
    EXPECT_TRUE(strictly_increasing(frame.eve.known));
  }
  EXPECT_NEAR(total.qber(), 0.125, 0.02);  // from the intercept half
  EXPECT_GT(captured, 0u);                 // from the PNS stage
}

}  // namespace
}  // namespace qkd::optics
