#include "src/optics/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "src/optics/link_model.hpp"
#include "tests/testing/photon_tap.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::optics {
namespace {

using qkd::testing::PhotonTap;

// Counts sifted bits and errors in a frame (protocol-free reference sift).
struct SiftCount {
  std::size_t sifted = 0;
  std::size_t errors = 0;
  double qber() const {
    return sifted ? static_cast<double>(errors) / sifted : 0.0;
  }
};

/// The frame's clicks are sorted, each slot once, all inside the frame.
bool clicks_in_order(const FrameResult& frame) {
  for (std::size_t i = 1; i < frame.clicks.size(); ++i)
    if (frame.clicks[i - 1].slot >= frame.clicks[i].slot) return false;
  return frame.clicks.empty() || frame.clicks.back().slot < frame.slots;
}

SiftCount reference_sift(const FrameResult& frame) {
  SiftCount out;
  for (const Click& click : frame.clicks) {
    if (click.alice_basis != click.bob_basis) continue;
    ++out.sifted;
    if (click.alice_value != click.bob_bit) ++out.errors;
  }
  return out;
}

TEST(WeakCoherentLink, FrameShapesAreConsistent) {
  // The same shapes with and without an attack on the line.
  WeakCoherentLink link(LinkParams{}, 1);
  PhotonTap tap;
  for (const FrameResult& frame :
       {link.run_frame(10000), tap.run(link, 10000)}) {
    EXPECT_EQ(frame.slots, 10000u);
    EXPECT_GT(frame.clicks.size(), 0u);
    EXPECT_TRUE(clicks_in_order(frame));
    EXPECT_TRUE(frame.eve.attacked.empty());  // the tap only watches
  }
}

TEST(WeakCoherentLink, DeterministicForSeed) {
  WeakCoherentLink a(LinkParams{}, 77), b(LinkParams{}, 77);
  const FrameResult fa = a.run_frame(5000);
  const FrameResult fb = b.run_frame(5000);
  EXPECT_EQ(fa.clicks, fb.clicks);
  EXPECT_EQ(fa.double_clicks, fb.double_clicks);
}

TEST(WeakCoherentLink, PhotonStatisticsArePoisson) {
  LinkParams params;
  params.mean_photon_number = 0.1;
  WeakCoherentLink link(params, 3);
  PhotonTap tap;
  const FrameResult frame = tap.run(link, 200000);
  double mean = 0;
  std::size_t multi = 0;
  for (unsigned c : tap.photons()) {
    mean += c;
    multi += c >= 2;
  }
  mean /= static_cast<double>(frame.slots);
  EXPECT_NEAR(mean, 0.1, 0.005);
  // Multi-photon fraction ~ 1 - e^-mu(1+mu) ~ 0.468 %.
  EXPECT_NEAR(static_cast<double>(multi) / frame.slots, 0.00468, 0.001);
}

TEST(WeakCoherentLink, DetectionRateMatchesAnalyticModel) {
  const LinkParams params;  // paper operating point
  WeakCoherentLink link(params, 5);
  const LinkModel model(params);
  const std::size_t n = 1000000;
  link.run_frame(n);
  const double simulated =
      static_cast<double>(link.stats().detections) / static_cast<double>(n);
  const double predicted = model.p_single_click();
  EXPECT_NEAR(simulated, predicted, 0.15 * predicted + 1e-5);
}

TEST(WeakCoherentLink, QberAtPaperOperatingPointIsSixToEightPercent) {
  // Sec. 4: "approximately a 6-8% Quantum Bit Error Rate".
  WeakCoherentLink link(LinkParams{}, 7);
  SiftCount total;
  for (int i = 0; i < 5; ++i) {
    const FrameResult frame = link.run_frame(500000);
    const SiftCount c = reference_sift(frame);
    total.sifted += c.sifted;
    total.errors += c.errors;
  }
  ASSERT_GT(total.sifted, 1000u);
  EXPECT_GT(total.qber(), 0.05);
  EXPECT_LT(total.qber(), 0.09);
}

TEST(WeakCoherentLink, QberMatchesAnalyticPrediction) {
  LinkParams params;
  params.interferometer_visibility = 0.95;
  params.fiber_km = 25.0;
  WeakCoherentLink link(params, 9);
  const LinkModel model(params);
  SiftCount total;
  for (int i = 0; i < 5; ++i) {
    const SiftCount c = reference_sift(link.run_frame(500000));
    total.sifted += c.sifted;
    total.errors += c.errors;
  }
  EXPECT_NEAR(total.qber(), model.expected_qber(),
              0.25 * model.expected_qber() + 0.005);
}

/// Pearson chi-square of the 8 (Alice basis, Alice value, Bob basis)
/// combinations over a frame's clicks against the uniform law.
struct SettingCounts {
  std::array<std::size_t, 8> cells{};
  std::size_t clicks = 0;

  void add(const FrameResult& frame) {
    for (const Click& click : frame.clicks) {
      ++cells[(click.alice_basis == Basis::kDiagonal ? 4u : 0u) +
              (click.alice_value ? 2u : 0u) +
              (click.bob_basis == Basis::kDiagonal ? 1u : 0u)];
      ++clicks;
    }
  }

  double chi_square() const {
    const double expected = static_cast<double>(clicks) / 8.0;
    double chi2 = 0.0;
    for (std::size_t n : cells) {
      const double d = static_cast<double>(n) - expected;
      chi2 += d * d / expected;
    }
    return chi2;
  }
};

TEST(WeakCoherentLink, BasisChoicesAreBalanced) {
  // Alice's basis and value and Bob's basis are independent fair coins, so
  // at the clicks all 8 combinations are equally likely. The chi-square
  // (df 7) bound of 42.0 fails a correct generator with probability
  // ~5.2e-7 per path; two paths (thinned, and tapped at the source's mu):
  // ~1e-6 per test. A generator that reuses one setting bit for another
  // empties half the cells and scores ~N.
  //
  // The double-click discard is the one real dependence: at the paper
  // point lambda ~ 0.003 detected photons per slot, so ~lambda / 2 of the
  // clicks carry two photons, and those split into a double click about
  // 0.5 of the time in mismatched bases against ~0.1 matched. Matched
  // cells thus click ~0.2 * lambda ~ 6e-4 more often (relative) than
  // mismatched ones, a chi-square shift of ~N * 1e-7 ~ 0.006 at N ~ 60k;
  // the bound resolves a ~2.4 % relative cell deviation (chi-square ~35
  // above its mean of 7), some 40x coarser.
  QKD_SEEDED_RNG(seeds, 11);
  for (const bool tapped : {false, true}) {
    SCOPED_TRACE(tapped ? "tapped" : "thinned");
    WeakCoherentLink link(LinkParams{}, seeds.next_u64());
    PhotonTap tap;
    SettingCounts counts;
    for (int f = 0; f < 20; ++f)
      counts.add(tapped ? tap.run(link, 1 << 20) : link.run_frame(1 << 20));
    ASSERT_GE(counts.clicks, 50000u);
    EXPECT_LT(counts.chi_square(), 42.0)
        << counts.clicks << " clicks over 8 settings";
  }
}

TEST(WeakCoherentLink, DarkCountsDominateAtExtremeRange) {
  // Far beyond the ~70 km limit a click is a dark count ~81 % of the time:
  // a slot clicks dark-only with probability e^-lambda * 2d(1 - d) (no
  // photon, one APD dark and the other quiet), out of p_single_click. Over
  // 2^24 slots (~420 clicks, sd of the share ~0.019) the observed share
  // must meet that law within 5 sigma: false-failure rate ~5.7e-7.
  LinkParams params;
  params.fiber_km = 150.0;
  const LinkModel model(params);
  const double dark = params.dark_count_prob;
  const double dark_share = std::exp(-model.detected_mean()) * 2.0 * dark *
                            (1.0 - dark) / model.p_single_click();
  ASSERT_GT(dark_share, 0.8);
  WeakCoherentLink link(params, 13);
  for (int f = 0; f < 16; ++f) link.run_frame(1 << 20);
  const auto& stats = link.stats();
  ASSERT_GT(stats.detections, 0u);
  const double n = static_cast<double>(stats.detections);
  EXPECT_NEAR(static_cast<double>(stats.dark_only_clicks) / n, dark_share,
              5.0 * std::sqrt(dark_share * (1.0 - dark_share) / n));
}

TEST(WeakCoherentLink, GapsBetweenDarkClicksAreGeometric) {
  // With no light a slot clicks once with probability q = 2d(1 - d), on
  // its own, so the gap from one click to the next is Geometric(q) on
  // {1, 2, ...}: P(gap >= k) = (1 - q)^(k - 1). Chi-square over 32 buckets
  // of 13 slots out to ~8 / q plus one for the tail (df 32, ~83k gaps,
  // smallest expected count ~6): the bound of 88 fails a correct
  // generator with probability ~4e-7.
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 0.01;
  const double dark = params.dark_count_prob;
  const double q = 2.0 * dark * (1.0 - dark);
  constexpr std::size_t kBuckets = 32, kWidth = 13;
  std::array<std::size_t, kBuckets + 1> counts{};
  std::size_t gaps = 0;
  WeakCoherentLink link(params, 61);
  for (int f = 0; f < 4; ++f) {
    const FrameResult frame = link.run_frame(1 << 20);
    for (std::size_t i = 1; i < frame.clicks.size(); ++i) {
      const std::size_t gap = frame.clicks[i].slot - frame.clicks[i - 1].slot;
      ++counts[std::min((gap - 1) / kWidth, kBuckets)];
      ++gaps;
    }
  }
  ASSERT_GT(gaps, 80000u);
  double chi_square = 0.0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    // P(gap - 1 >= b * kWidth) less the same past the bucket's end.
    const double from = std::pow(1.0 - q, static_cast<double>(b * kWidth));
    const double to =
        b < kBuckets
            ? std::pow(1.0 - q, static_cast<double>((b + 1) * kWidth))
            : 0.0;
    const double expected = static_cast<double>(gaps) * (from - to);
    const double diff = static_cast<double>(counts[b]) - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 88.0) << gaps << " gaps";
}

TEST(WeakCoherentLink, MisframingLosesSlots) {
  LinkParams params;
  params.misframe_prob = 0.5;
  WeakCoherentLink lossy(params, 15);
  WeakCoherentLink clean(LinkParams{}, 15);
  lossy.run_frame(500000);
  clean.run_frame(500000);
  EXPECT_NEAR(static_cast<double>(lossy.stats().misframed_slots), 250000, 2500);
  EXPECT_LT(lossy.stats().detections, clean.stats().detections);
}

TEST(WeakCoherentLink, AfterpulsingInflatesClickCount) {
  LinkParams noisy;
  noisy.afterpulse_prob = 0.5;
  noisy.dark_count_prob = 1e-3;  // enough triggers for afterpulses to matter
  LinkParams quiet = noisy;
  quiet.afterpulse_prob = 0.0;
  WeakCoherentLink a(noisy, 17), b(quiet, 17);
  a.run_frame(300000);
  b.run_frame(300000);
  EXPECT_GT(a.stats().detections + 2 * a.stats().double_clicks,
            b.stats().detections + 2 * b.stats().double_clicks);
}

TEST(WeakCoherentLink, RejectsInvalidParams) {
  LinkParams bad;
  bad.detector_efficiency = 1.5;
  EXPECT_THROW(WeakCoherentLink(bad, 1), std::invalid_argument);
  bad = LinkParams{};
  bad.interferometer_visibility = -0.1;
  EXPECT_THROW(WeakCoherentLink(bad, 1), std::invalid_argument);
  bad = LinkParams{};
  bad.mean_photon_number = -1;
  EXPECT_THROW(WeakCoherentLink(bad, 1), std::invalid_argument);
}

TEST(WeakCoherentLink, FrameDurationFollowsTriggerRate) {
  LinkParams params;
  params.pulse_rate_hz = 1e6;
  WeakCoherentLink link(params, 19);
  EXPECT_DOUBLE_EQ(link.frame_duration_s(1000000), 1.0);
  EXPECT_DOUBLE_EQ(link.frame_duration_s(500000), 0.5);
}

// ---- Edge parameters: no division by zero, no endless loop ---------------

TEST(WeakCoherentLinkEdges, ZeroMeanPhotonNumberLeavesOnlyDarkCounts) {
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 1e-3;
  WeakCoherentLink link(params, 41);
  PhotonTap tap;
  tap.run(link, 100000);
  for (unsigned n : tap.photons()) ASSERT_EQ(n, 0u);
  EXPECT_EQ(link.stats().signal_clicks, 0u);
  EXPECT_GT(link.stats().dark_only_clicks, 0u);
}

TEST(WeakCoherentLinkEdges, NoLightAndNoDarkCountsNeverClick) {
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 0.0;
  WeakCoherentLink link(params, 43);
  const FrameResult frame = link.run_frame(100000);
  EXPECT_TRUE(frame.clicks.empty());
  EXPECT_EQ(link.stats().double_clicks, 0u);
}

TEST(WeakCoherentLinkEdges, ZeroDarkCountProbabilityMeansNoDarkClicks) {
  LinkParams params;
  params.dark_count_prob = 0.0;
  params.fiber_km = 0.0;
  WeakCoherentLink link(params, 45);
  link.run_frame(200000);
  EXPECT_GT(link.stats().signal_clicks, 0u);
  EXPECT_EQ(link.stats().dark_only_clicks, 0u);
}

TEST(WeakCoherentLinkEdges, EverySlotMisframedLosesEverySlot) {
  LinkParams params;
  params.misframe_prob = 1.0;
  params.dark_count_prob = 0.5;
  WeakCoherentLink link(params, 47);
  PhotonTap tap;
  const FrameResult frame = tap.run(link, 50000);
  EXPECT_EQ(link.stats().misframed_slots, 50000u);
  EXPECT_TRUE(frame.clicks.empty());
  EXPECT_EQ(link.stats().double_clicks, 0u);
  // Alice's transmitter does not depend on Bob's framing.
  std::size_t emitted = 0;
  for (unsigned n : tap.photons()) emitted += n;
  EXPECT_GT(emitted, 0u);
}

TEST(WeakCoherentLinkEdges, CertainDarkCountsAndSaturatedSourceTerminate) {
  // Every rate at 1: each gap is zero, no log(0), no infinite skip.
  LinkParams params;
  params.mean_photon_number = 50.0;  // 1 - e^-50 rounds to 1
  params.dark_count_prob = 1.0;
  params.afterpulse_prob = 1.0;
  WeakCoherentLink link(params, 49);
  // A certain dark count fires at least one APD in every gate, with or
  // without an attack on the line.
  link.run_frame(5000);
  EXPECT_EQ(link.stats().detections + link.stats().double_clicks, 5000u);
  PhotonTap tap;
  tap.run(link, 5000);
  double photons = 0.0;
  for (unsigned n : tap.photons()) {
    ASSERT_GT(n, 0u);
    photons += n;
  }
  EXPECT_NEAR(photons / 5000.0, 50.0, 0.5);  // sd of the mean: 0.1
  EXPECT_EQ(link.stats().detections + link.stats().double_clicks, 10000u);
}

TEST(WeakCoherentLinkEdges, ZeroVisibilityErasesTheKey) {
  LinkParams params;
  params.interferometer_visibility = 0.0;
  params.fiber_km = 0.0;
  WeakCoherentLink link(params, 51);
  SiftCount total;
  for (int i = 0; i < 4; ++i) {
    const SiftCount c = reference_sift(link.run_frame(1 << 18));
    total.sifted += c.sifted;
    total.errors += c.errors;
  }
  ASSERT_GT(total.sifted, 2000u);
  EXPECT_NEAR(total.qber(), 0.5, 0.06);  // > 5 sigma at ~3,900 sifted bits
}

TEST(WeakCoherentLinkEdges, FullVisibilityWithoutDarkCountsIsErrorFree) {
  LinkParams params;
  params.interferometer_visibility = 1.0;
  params.dark_count_prob = 0.0;
  params.fiber_km = 0.0;
  WeakCoherentLink link(params, 53);
  const SiftCount c = reference_sift(link.run_frame(1 << 18));
  ASSERT_GT(c.sifted, 500u);
  EXPECT_EQ(c.errors, 0u);
}

TEST(WeakCoherentLinkEdges, FrameSizesOffTheWordGridKeepCleanTails) {
  // Darks fire ~10 % of the gates, so clicks reach the frame's last slots
  // (none in the last 200 has probability 0.9^200 ~ 7e-10): none may land
  // at or past the end, whatever the size.
  LinkParams params;
  params.fiber_km = 0.0;
  params.dark_count_prob = 0.05;
  WeakCoherentLink link(params, 55);
  for (std::size_t n : {0u, 1u, 63u, 65u, 1000u, 4097u}) {
    SCOPED_TRACE("slots=" + std::to_string(n));
    const FrameResult frame = link.run_frame(n);
    EXPECT_EQ(frame.slots, n);
    EXPECT_TRUE(clicks_in_order(frame));
    if (n >= 1000) {
      EXPECT_GT(frame.clicks.back().slot, n - 200);
    }
  }
  EXPECT_EQ(link.stats().pulses, 0u + 1 + 63 + 65 + 1000 + 4097);
}

TEST(WeakCoherentLinkEdges, AfterpulseChainsRunAcrossEmptySlotsAndFrames) {
  // With certain afterpulsing, the first dark click re-fires its APD in
  // every later gate — including gates with no other event and the first
  // gate of the next frame.
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 1e-4;
  params.afterpulse_prob = 1.0;
  WeakCoherentLink link(params, 57);
  const FrameResult first = link.run_frame(200000);
  // The first dark click is ~5,000 gates in; none by gate 100,000 has
  // probability (1 - 2e-4)^1e5 ~ e^-20.
  ASSERT_FALSE(first.clicks.empty());
  const std::size_t start = first.clicks.front().slot;
  ASSERT_LT(start, 100000u);
  const auto& stats = link.stats();
  EXPECT_EQ(stats.detections + stats.double_clicks, 200000u - start);
  link.run_frame(1000);
  EXPECT_EQ(link.stats().detections + link.stats().double_clicks,
            201000u - start);
}

TEST(WeakCoherentLinkEdges, MisframesCutAfterpulseChains) {
  // A misframed gate clears any pending afterpulse. With certain
  // afterpulsing a chain starts on a dark click (2e-3 per gate) and ends
  // at a misframe (1e-2 per gate), so the stationary share of clicking
  // gates is (0.99 * 2e-3) / (0.99 * 2e-3 + 1e-2) ~ 0.165. Chains average
  // 100 gates, so 2^20 gates hold ~1,700 of them: relative sd ~5 %, and
  // the [0.10, 0.25] window is > 7 sd wide on each side. Without the
  // reset the share would approach 1.
  LinkParams params;
  params.mean_photon_number = 0.0;
  params.dark_count_prob = 1e-3;
  params.afterpulse_prob = 1.0;
  params.misframe_prob = 1e-2;
  WeakCoherentLink link(params, 59);
  link.run_frame(1 << 20);
  const auto& stats = link.stats();
  const double clicking =
      static_cast<double>(stats.detections + stats.double_clicks) /
      static_cast<double>(1 << 20);
  EXPECT_GT(clicking, 0.10);
  EXPECT_LT(clicking, 0.25);
}

TEST(LinkModel, MaxRangeNearSeventyKm) {
  // Sec. 1: "distances up to about 70 km through fiber". The default
  // calibration must collapse (QBER > 11 %) in the 55-90 km window.
  const LinkModel model{LinkParams{}};
  const double range = model.max_range_km();
  EXPECT_GT(range, 55.0);
  EXPECT_LT(range, 90.0);
}

TEST(LinkModel, RangeIsZeroWhenFloorExceedsThreshold) {
  LinkParams params;
  params.interferometer_visibility = 0.5;  // 25 % intrinsic error floor
  EXPECT_DOUBLE_EQ(LinkModel(params).max_range_km(), 0.0);
}

TEST(LinkModel, PaperSiftingExample) {
  // Sec. 5 worked example: 1 % detection probability and zero noise means
  // 1 sifted bit per 200 transmitted: "A transmitted stream of 1,000 bits
  // therefore would boil down to about 5 sifted bits."
  LinkParams params;
  params.dark_count_prob = 0.0;
  params.interferometer_visibility = 1.0;
  // Tune losses so P(single click) is ~1 %.
  params.mean_photon_number = 0.1;
  params.fiber_km = 0.0;
  params.insertion_loss_db = 0.0;
  params.central_peak_fraction = 0.5;
  params.detector_efficiency = 0.2012;  // lambda ~ 0.01006 -> p ~ 1.0 %
  const LinkModel model(params);
  EXPECT_NEAR(model.p_single_click(), 0.01, 0.0005);
  EXPECT_NEAR(model.sift_fraction() * 1000.0, 5.0, 0.3);  // ~5 per 1000
}

TEST(LinkModel, SiftedRateScalesWithPulseRate) {
  LinkParams params;
  const LinkModel at_1mhz(params);
  params.pulse_rate_hz = 5e6;  // the hardware's 5 MHz max trigger rate
  const LinkModel at_5mhz(params);
  EXPECT_NEAR(at_5mhz.sifted_rate_bps() / at_1mhz.sifted_rate_bps(), 5.0,
              1e-9);
}

TEST(LinkModel, QberRisesMonotonicallyWithDistance) {
  LinkParams params;
  double prev = 0.0;
  for (double km : {0.0, 10.0, 30.0, 50.0, 70.0, 90.0}) {
    params.fiber_km = km;
    const double q = LinkModel(params).expected_qber();
    EXPECT_GE(q, prev) << km;
    prev = q;
  }
  EXPECT_GT(prev, 0.11);  // beyond range at 90 km
}

}  // namespace
}  // namespace qkd::optics
