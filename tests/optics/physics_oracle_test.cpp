// Statistical oracles for the Qframe generator.
//
// Every expectation here comes from the paper's analytic laws, never from
// the generator itself: the Mach-Zehnder click law (E1, Figs. 4-7), the
// QBER decomposition into signal and dark-only errors (E2, Sec. 4), the
// ~70 km range limit (E4, Sec. 1), Poisson photon statistics, and the
// attack laws of Sec. 6. Any generator that simulates the same physics
// passes them, whatever order it draws its random numbers in.
//
// Tolerances are z-bounds on binomial counts (sigma = sqrt(p(1-p)/n)). A
// 5-sigma two-sided bound fails a correct generator with probability
// ~5.7e-7 per assertion under the normal approximation; each test states
// its assertion count and the resulting per-test false-failure rate over
// seeds (QKD_TEST_SEED replays or explores them).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "src/optics/attacks.hpp"
#include "src/optics/interference.hpp"
#include "src/optics/link.hpp"
#include "src/optics/link_model.hpp"
#include "tests/testing/photon_tap.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::optics {
namespace {

using qkd::testing::PhotonTap;

constexpr double kZ = 5.0;  // two-sided false-failure 5.7e-7 per assertion

/// z-bound on an observed fraction `hits / n` around the expected `p`.
void expect_fraction(std::size_t hits, std::size_t n, double p,
                     const char* what) {
  ASSERT_GT(n, 0u) << what;
  const double observed = static_cast<double>(hits) / static_cast<double>(n);
  const double sigma = std::sqrt(p * (1.0 - p) / static_cast<double>(n));
  EXPECT_NEAR(observed, p, kZ * sigma)
      << what << ": " << hits << " of " << n << " (expected p = " << p << ")";
}

/// Bright, lossless calibration: mean detected photons lambda = mu / 2.
LinkParams lossless(double mu) {
  LinkParams params;
  params.mean_photon_number = mu;
  params.fiber_km = 0.0;
  params.insertion_loss_db = 0.0;
  params.detector_efficiency = 1.0;
  return params;
}

/// Counts over compatible-basis single clicks (the sifted slots).
struct SiftTally {
  std::size_t sifted = 0;
  std::size_t errors = 0;
  std::size_t zero_photon_sifted = 0;  // Alice emitted nothing: dark-only
  std::size_t zero_photon_errors = 0;
  std::size_t attacked_sifted = 0;
  std::size_t attacked_errors = 0;
  std::size_t clean_errors = 0;  // errors on slots Eve left alone

  /// `tap`, if given, ran the frame; its photon numbers feed the
  /// zero-photon counts.
  void add(const FrameResult& frame, const PhotonTap* tap = nullptr) {
    for (const Click& click : frame.clicks) add_click(frame, tap, click);
  }

  void add_click(const FrameResult& frame, const PhotonTap* tap,
                 const Click& click) {
    if (click.alice_basis != click.bob_basis) return;
    const bool error = click.alice_value != click.bob_bit;
    ++sifted;
    errors += error;
    if (tap != nullptr && tap->photons()[click.slot] == 0) {
      ++zero_photon_sifted;
      zero_photon_errors += error;
    }
    if (std::binary_search(frame.eve.attacked.begin(), frame.eve.attacked.end(),
                           click.slot)) {
      ++attacked_sifted;
      attacked_errors += error;
    } else {
      clean_errors += error;
    }
  }
};

// ---- E1: the click law for all eight (Alice phase, Bob basis) settings ----

/// P(only D1 fires) and P(only D0 fires) for one setting: photons reaching
/// each APD are Poisson-thinned (lambda * p_d1, lambda * (1 - p_d1)), and
/// each APD also fires on a dark count with probability `dark`.
struct ClickLaw {
  double d1_alone;
  double d0_alone;
};

ClickLaw click_law(const LinkParams& params, unsigned alice_q, unsigned bob_q) {
  const double lambda = LinkModel(params).detected_mean();
  const double p1 =
      p_route_to_d1(alice_q, bob_q, params.interferometer_visibility);
  const double quiet = 1.0 - params.dark_count_prob;
  const double fires1 = 1.0 - std::exp(-lambda * p1) * quiet;
  const double fires0 = 1.0 - std::exp(-lambda * (1.0 - p1)) * quiet;
  return {fires1 * (1.0 - fires0), fires0 * (1.0 - fires1)};
}

/// Each setting holds 1/8 of the slots, so its single clicks per slot
/// follow the law / 8. 16 setting assertions plus one marginal: per-test
/// false-failure rate <= 1e-5.
void check_click_law(const LinkParams& params, std::size_t frames,
                     std::uint64_t seed) {
  struct Setting {
    std::size_t d1 = 0, d0 = 0;
  };
  std::array<Setting, 8> settings{};
  WeakCoherentLink link(params, seed);
  std::size_t slots = 0, singles = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const FrameResult frame = link.run_frame(1 << 20);
    for (const Click& click : frame.clicks) {
      const unsigned aq =
          alice_phase_quarter(click.alice_basis, click.alice_value);
      Setting& s = settings[aq * 2 + bob_phase_quarter(click.bob_basis)];
      ++singles;
      if (click.bob_bit)
        ++s.d1;
      else
        ++s.d0;
    }
    slots += frame.slots;
  }
  double mean_single = 0.0;
  for (unsigned aq = 0; aq < 4; ++aq) {
    for (unsigned bq = 0; bq < 2; ++bq) {
      SCOPED_TRACE("alice_q=" + std::to_string(aq) +
                   " bob_q=" + std::to_string(bq));
      const ClickLaw law = click_law(params, aq, bq);
      const Setting& s = settings[aq * 2 + bq];
      expect_fraction(s.d1, slots, law.d1_alone / 8.0, "D1 alone");
      expect_fraction(s.d0, slots, law.d0_alone / 8.0, "D0 alone");
      mean_single += (law.d1_alone + law.d0_alone) / 8.0;
    }
  }
  // The per-setting law averages to the link model's marginal (a check on
  // this test's own arithmetic), which the marginal click rate then meets.
  EXPECT_NEAR(mean_single, LinkModel(params).p_single_click(),
              1e-12 * (1.0 + mean_single));
  expect_fraction(singles, slots, LinkModel(params).p_single_click(),
                  "single clicks per slot");
}

TEST(ClickLaw, EightSettingsMatchTheInterferenceLawWhenBright) {
  // lambda = 0.5: a third of the slots click, so every setting is sharp.
  QKD_SEEDED_RNG(seeds, 101);
  check_click_law(lossless(1.0), 1, seeds.next_u64());
}

TEST(ClickLaw, EightSettingsMatchTheInterferenceLawAtThePaperPoint) {
  // mu = 0.1 at 10 km: ~0.3 % of slots click.
  QKD_SEEDED_RNG(seeds, 103);
  check_click_law(LinkParams{}, 4, seeds.next_u64());
}

// ---- E2: QBER decomposition into signal and dark-only errors ------------

TEST(QberDecomposition, SignalErrorsSitOnTheVisibilityFloor) {
  // No dark counts: every error is a photon routed to the wrong APD, so
  // the QBER is the link model's signal-only value (~(1-V)/2) and no click
  // is dark-only. Two assertions: false-failure rate ~6e-7.
  QKD_SEEDED_RNG(seeds, 107);
  LinkParams params = lossless(0.1);
  params.detector_efficiency = 0.15;
  params.dark_count_prob = 0.0;
  WeakCoherentLink link(params, seeds.next_u64());
  SiftTally tally;
  for (int f = 0; f < 4; ++f) tally.add(link.run_frame(1 << 20));
  EXPECT_EQ(link.stats().dark_only_clicks, 0u);
  expect_fraction(tally.errors, tally.sifted,
                  LinkModel(params).expected_qber(), "signal QBER");
}

/// E2's split of single clicks per slot: dark-only (no detected photon,
/// one dark APD) and signal (>= 1 detected photon, exactly one APD).
struct ClickSplit {
  double dark_only;
  double signal;
};

ClickSplit e2_split(const LinkParams& params) {
  const double lambda = LinkModel(params).detected_mean();
  const double dark = params.dark_count_prob;
  // A slot with no detected photon clicks alone when one APD fires dark
  // and the other stays quiet.
  ClickSplit split{std::exp(-lambda) * 2.0 * dark * (1.0 - dark), 0.0};
  for (unsigned aq = 0; aq < 4; ++aq) {
    for (unsigned bq = 0; bq < 2; ++bq) {
      const double p1 =
          p_route_to_d1(aq, bq, params.interferometer_visibility);
      const double only1 =
          (1.0 - std::exp(-lambda * p1)) * std::exp(-lambda * (1.0 - p1));
      const double only0 =
          (1.0 - std::exp(-lambda * (1.0 - p1))) * std::exp(-lambda * p1);
      split.signal += (only1 + only0) * (1.0 - dark) / 8.0;
    }
  }
  return split;
}

/// Paper point with a warm detector (dark 1e-4 per gate), so dark-only
/// clicks are ~6 % of detections.
LinkParams warm_detector() {
  LinkParams params;
  params.dark_count_prob = 1e-4;
  return params;
}

TEST(QberDecomposition, DarkOnlyClicksSplitFiftyFiftyAndAddUp) {
  // Checked with a photon tap on the line, so the emitted photon numbers
  // are visible: the dark-only and signal click rates against their
  // analytic laws, the 50 % error rate on slots where Alice emitted
  // nothing (dark-only by construction), and the total QBER against the
  // link model's weighted sum. Four assertions: ~2.3e-6.
  QKD_SEEDED_RNG(seeds, 109);
  const LinkParams params = warm_detector();
  WeakCoherentLink link(params, seeds.next_u64());
  PhotonTap tap;
  SiftTally tally;
  const std::size_t frames = 4;
  for (std::size_t f = 0; f < frames; ++f)
    tally.add(tap.run(link, 1 << 20), &tap);
  const std::size_t slots = frames << 20;

  const ClickSplit split = e2_split(params);
  expect_fraction(link.stats().dark_only_clicks, slots, split.dark_only,
                  "dark-only clicks per slot");
  expect_fraction(link.stats().signal_clicks, slots, split.signal,
                  "signal clicks per slot");
  expect_fraction(tally.zero_photon_errors, tally.zero_photon_sifted, 0.5,
                  "QBER of dark-only sifted bits");
  expect_fraction(tally.errors, tally.sifted,
                  LinkModel(params).expected_qber(), "total QBER");
}

TEST(QberDecomposition, SignalAndDarkOnlySplitHoldsWithNoEveOnTheLine) {
  // The same split on the thinned path, read from Stats: with no attack
  // the generator emits only photons that reach an APD, and the click
  // rates must still meet E2's laws. Two assertions: ~1.1e-6.
  QKD_SEEDED_RNG(seeds, 149);
  const LinkParams params = warm_detector();
  WeakCoherentLink link(params, seeds.next_u64());
  const std::size_t frames = 4;
  for (std::size_t f = 0; f < frames; ++f) link.run_frame(1 << 20);
  const std::size_t slots = frames << 20;

  const ClickSplit split = e2_split(params);
  expect_fraction(link.stats().dark_only_clicks, slots, split.dark_only,
                  "dark-only clicks per slot");
  expect_fraction(link.stats().signal_clicks, slots, split.signal,
                  "signal clicks per slot");
}

// ---- Dark counts: each APD fires on its own -------------------------------

TEST(DarkCountLaw, EachApdFiresIndependentlyInAQuietGate) {
  // With no light each APD fires on a dark count with probability d,
  // independently of the other, as LinkModel::click_probs has it: a slot
  // clicks once with probability 2d(1 - d) and twice with d^2. At d = 0.2
  // that is 0.32 and 0.04 per slot. Two 5-sigma assertions: ~1.1e-6.
  QKD_SEEDED_RNG(seeds, 157);
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 0.2;
  WeakCoherentLink link(params, seeds.next_u64());
  const FrameResult frame = link.run_frame(1 << 20);
  const double dark = params.dark_count_prob;
  ASSERT_EQ(link.stats().signal_clicks, 0u);
  ASSERT_NEAR(LinkModel(params).p_single_click(), 2.0 * dark * (1.0 - dark),
              1e-15);
  expect_fraction(link.stats().detections, frame.slots,
                  LinkModel(params).p_single_click(), "single clicks per slot");
  expect_fraction(link.stats().double_clicks, frame.slots, dark * dark,
                  "double clicks per slot");
}

// ---- E4: the QBER crosses 11 % near 70 km --------------------------------

double simulated_qber(double km, std::size_t frames, std::uint64_t seed,
                      SiftTally& tally) {
  LinkParams params;
  params.fiber_km = km;
  WeakCoherentLink link(params, seed);
  for (std::size_t f = 0; f < frames; ++f) tally.add(link.run_frame(1 << 22));
  return static_cast<double>(tally.errors) / static_cast<double>(tally.sifted);
}

TEST(RangeLaw, QberCrossesElevenPercentNearSeventyKm) {
  // The analytic crossing sits in the paper's "about 70 km" window; the
  // simulated QBER is under 11 % at 60 km (model 8.5 %, ~5.2 sigma of
  // margin over ~3,300 sifted bits) and over it at 90 km (model 15.1 %,
  // ~5 sigma over ~2,000). Two one-sided 5-sigma bounds plus two model
  // agreements: false-failure rate ~1.7e-6.
  QKD_SEEDED_RNG(seeds, 113);
  LinkParams params;
  const double crossing = LinkModel(params).max_range_km(0.11);
  EXPECT_GT(crossing, 65.0);
  EXPECT_LT(crossing, 80.0);

  SiftTally near, far;
  const double q60 = simulated_qber(60.0, 5, seeds.next_u64(), near);
  const double q90 = simulated_qber(90.0, 10, seeds.next_u64(), far);
  EXPECT_LT(q60, 0.11) << near.sifted << " sifted bits";
  EXPECT_GT(q90, 0.11) << far.sifted << " sifted bits";
  params.fiber_km = 60.0;
  expect_fraction(near.errors, near.sifted, LinkModel(params).expected_qber(),
                  "QBER at 60 km");
  params.fiber_km = 90.0;
  expect_fraction(far.errors, far.sifted, LinkModel(params).expected_qber(),
                  "QBER at 90 km");
}

// ---- Photon-number law ---------------------------------------------------

TEST(PhotonNumberLaw, SlotsFollowPoissonStatistics) {
  // P(N=0), P(N=1) and P(N>=2) at three brightnesses. Nine assertions:
  // false-failure rate ~5e-6.
  QKD_SEEDED_RNG(seeds, 127);
  for (double mu : {0.1, 0.5, 2.0}) {
    SCOPED_TRACE("mu=" + std::to_string(mu));
    WeakCoherentLink link(lossless(mu), seeds.next_u64());
    PhotonTap tap;
    tap.run(link, 1 << 20);
    std::size_t zero = 0, one = 0, multi = 0;
    for (unsigned n : tap.photons()) {
      zero += n == 0;
      one += n == 1;
      multi += n >= 2;
    }
    const std::size_t slots = tap.photons().size();
    const double p0 = std::exp(-mu);
    expect_fraction(zero, slots, p0, "P(N=0)");
    expect_fraction(one, slots, mu * p0, "P(N=1)");
    expect_fraction(multi, slots, LinkModel(lossless(mu)).multi_photon_prob(),
                    "P(N>=2)");
  }
}

// ---- Attack laws (Sec. 6) ------------------------------------------------

LinkParams noiseless_lossless(double mu) {
  LinkParams params = lossless(mu);
  params.detector_efficiency = 0.15;
  params.interferometer_visibility = 1.0;  // only Eve makes errors
  params.dark_count_prob = 0.0;
  return params;
}

TEST(AttackLaw, InterceptResendErrsOnAQuarterOfInterceptedSiftedBits) {
  // Eve intercepts half the pulses. Untouched sifted bits are error-free
  // (V = 1, no darks); intercepted ones err 25 % of the time (wrong basis
  // half the time, then a coin flip); half the sifted bits are
  // intercepted. Two 5-sigma assertions: ~1.1e-6.
  QKD_SEEDED_RNG(seeds, 131);
  WeakCoherentLink link(noiseless_lossless(0.1), seeds.next_u64());
  InterceptResendAttack attack(0.5);
  SiftTally tally;
  for (int f = 0; f < 4; ++f) tally.add(link.run_frame(1 << 20, &attack));
  EXPECT_EQ(tally.clean_errors, 0u);
  expect_fraction(tally.attacked_errors, tally.attacked_sifted, 0.25,
                  "QBER on intercepted sifted bits");
  expect_fraction(tally.attacked_sifted, tally.sifted, 0.5,
                  "intercepted share of sifted bits");
}

TEST(AttackLaw, PnsAddsNoErrorsAndLearnsTheMultiPhotonFraction) {
  // Eve knows exactly the multi-photon slots, their share follows the
  // Poisson law, and she induces no error. One 5-sigma assertion: ~5.7e-7.
  QKD_SEEDED_RNG(seeds, 137);
  const LinkParams params = noiseless_lossless(0.5);
  WeakCoherentLink link(params, seeds.next_u64());
  PhotonNumberSplittingAttack attack;
  PhotonTap tap(&attack);
  const FrameResult frame = tap.run(link, 1 << 20);
  std::size_t multi = 0;
  for (unsigned n : tap.photons()) multi += n >= 2;
  EXPECT_EQ(frame.eve.known.size(), multi);
  EXPECT_EQ(frame.eve.photons_captured, multi);
  expect_fraction(multi, frame.slots,
                  LinkModel(params).multi_photon_prob(), "PNS-known slots");
  SiftTally tally;
  tally.add(frame);
  ASSERT_GT(tally.sifted, 1000u);
  EXPECT_EQ(tally.errors, 0u);
}

TEST(AttackLaw, ChannelCutLeavesOnlyDarkCounts) {
  // No photon reaches Bob: every click is a dark count (2d(1 - d) per
  // slot) and the sifted bits are coin flips. Both APDs fire dark in d^2
  // of the slots, ~1.05 expected over the frame: ten or more has Poisson
  // probability ~1.7e-7. Two 5-sigma assertions and that bound: ~1.3e-6.
  QKD_SEEDED_RNG(seeds, 139);
  LinkParams params;
  params.dark_count_prob = 1e-3;
  WeakCoherentLink link(params, seeds.next_u64());
  ChannelCutAttack attack;
  const FrameResult frame = link.run_frame(1 << 20, &attack);
  const double dark = params.dark_count_prob;
  EXPECT_EQ(link.stats().signal_clicks, 0u);
  EXPECT_LE(link.stats().double_clicks, 9u);
  expect_fraction(link.stats().dark_only_clicks, frame.slots,
                  2.0 * dark * (1.0 - dark), "dark clicks per slot");
  SiftTally tally;
  tally.add(frame);
  expect_fraction(tally.errors, tally.sifted, 0.5, "QBER under a cut");
}

// ---- Thinning: the no-Eve path against full visitation ------------------

/// Click outcomes of one link over `frames` frames of 2^20 slots, with no
/// attack (the thinned stream) or a pass-through tap on the line (every
/// emitted pulse visited, each photon surviving loss on its own).
struct Outcomes {
  std::size_t slots = 0;
  WeakCoherentLink::Stats stats;
  SiftTally tally;
};

Outcomes run_outcomes(const LinkParams& params, std::uint64_t seed,
                      std::size_t frames, bool tapped) {
  WeakCoherentLink link(params, seed);
  PhotonTap tap;
  Outcomes out;
  for (std::size_t f = 0; f < frames; ++f)
    out.tally.add(tapped ? tap.run(link, 1 << 20) : link.run_frame(1 << 20));
  out.slots = frames << 20;
  out.stats = link.stats();
  return out;
}

/// Two-sample z-bound: `a / na` and `b / nb` estimate one rate. The pooled
/// binomial variance is scaled by `inflation` where clicks cluster.
void expect_same_fraction(std::size_t a, std::size_t na, std::size_t b,
                          std::size_t nb, double inflation, const char* what) {
  ASSERT_GT(na, 0u) << what;
  ASSERT_GT(nb, 0u) << what;
  const double pa = static_cast<double>(a) / static_cast<double>(na);
  const double pb = static_cast<double>(b) / static_cast<double>(nb);
  const double pooled =
      static_cast<double>(a + b) / static_cast<double>(na + nb);
  const double sigma = std::sqrt(
      inflation * pooled * (1.0 - pooled) *
      (1.0 / static_cast<double>(na) + 1.0 / static_cast<double>(nb)));
  EXPECT_LE(std::abs(pa - pb), kZ * sigma)
      << what << ": " << a << " of " << na << " vs " << b << " of " << nb;
}

TEST(ThinningEquivalence, NoEvePathMatchesFullVisitation) {
  // With no attack the generator emits only the photons that reach an APD
  // (Poisson thinning); a pass-through tap forces the full stream. Both
  // must give the same detection, signal, dark-only and double-click rates
  // per slot and the same QBER at the paper point, at a bright lossless
  // point and with afterpulses and misframes. An afterpulse extends a
  // click into a chain of mean length 1 / (1 - a), which scales the count
  // variance by at most (1 + a) / (1 - a); the bound widens by that.
  // Fifteen 5-sigma assertions: false-failure rate ~8.6e-6.
  QKD_SEEDED_RNG(seeds, 151);
  LinkParams noisy;
  noisy.dark_count_prob = 1e-4;
  noisy.afterpulse_prob = 0.1;
  noisy.misframe_prob = 0.05;
  struct Point {
    const char* name;
    LinkParams params;
    std::size_t frames;
  };
  for (const Point& point : {Point{"paper point, 10 km", LinkParams{}, 8},
                             Point{"bright, lossless", lossless(1.0), 1},
                             Point{"afterpulses and misframes", noisy, 8}}) {
    SCOPED_TRACE(point.name);
    const Outcomes thinned =
        run_outcomes(point.params, seeds.next_u64(), point.frames, false);
    const Outcomes full =
        run_outcomes(point.params, seeds.next_u64(), point.frames, true);
    const double a = point.params.afterpulse_prob;
    const double inflation = (1.0 + a) / (1.0 - a);
    const auto same_rate = [&](std::uint64_t WeakCoherentLink::Stats::*count,
                               const char* what) {
      expect_same_fraction(thinned.stats.*count, thinned.slots,
                           full.stats.*count, full.slots, inflation, what);
    };
    same_rate(&WeakCoherentLink::Stats::detections, "detections per slot");
    same_rate(&WeakCoherentLink::Stats::signal_clicks, "signal clicks");
    same_rate(&WeakCoherentLink::Stats::dark_only_clicks, "dark-only clicks");
    same_rate(&WeakCoherentLink::Stats::double_clicks, "double clicks");
    expect_same_fraction(thinned.tally.errors, thinned.tally.sifted,
                         full.tally.errors, full.tally.sifted, inflation,
                         "QBER");
  }
}

}  // namespace
}  // namespace qkd::optics
