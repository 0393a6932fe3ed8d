#include "src/optics/entangled.hpp"

#include <gtest/gtest.h>

namespace qkd::optics {
namespace {

struct SiftCount {
  std::size_t sifted = 0;
  std::size_t errors = 0;
  double qber() const {
    return sifted ? static_cast<double>(errors) / sifted : 0.0;
  }
};

SiftCount reference_sift(const FrameResult& frame) {
  SiftCount out;
  for (const Click& click : frame.clicks) {
    if (click.alice_basis != click.bob_basis) continue;
    ++out.sifted;
    if (click.alice_value != click.bob_bit) ++out.errors;
  }
  return out;
}

TEST(EntangledLink, ProducesCompatibleFrames) {
  EntangledLink link(EntangledParams{}, 1);
  const FrameResult frame = link.run_frame(100000);
  EXPECT_EQ(frame.slots, 100000u);
  ASSERT_GT(frame.clicks.size(), 0u);
  // The same shape as the weak-coherent link's: clicks sorted, in range.
  for (std::size_t i = 1; i < frame.clicks.size(); ++i)
    EXPECT_LT(frame.clicks[i - 1].slot, frame.clicks[i].slot);
  EXPECT_LT(frame.clicks.back().slot, frame.slots);
}

TEST(EntangledLink, DeterministicForSeed) {
  EntangledLink a(EntangledParams{}, 9), b(EntangledParams{}, 9);
  const FrameResult fa = a.run_frame(50000);
  const FrameResult fb = b.run_frame(50000);
  EXPECT_EQ(fa.clicks, fb.clicks);
  EXPECT_EQ(fa.eve.known, fb.eve.known);
}

TEST(EntangledLink, MatchedBasesAreCorrelated) {
  EntangledParams params;
  params.visibility = 1.0;
  params.double_pair_probability = 0.0;
  params.dark_count_prob = 0.0;
  EntangledLink link(params, 3);
  const SiftCount count = reference_sift(link.run_frame(500000));
  ASSERT_GT(count.sifted, 200u);
  EXPECT_LT(count.qber(), 0.01);  // perfect correlation
}

TEST(EntangledLink, VisibilitySetsErrorFloor) {
  EntangledParams params;
  params.visibility = 0.90;
  params.double_pair_probability = 0.0;
  params.dark_count_prob = 0.0;
  EntangledLink link(params, 5);
  SiftCount total;
  for (int i = 0; i < 4; ++i) {
    const SiftCount c = reference_sift(link.run_frame(500000));
    total.sifted += c.sifted;
    total.errors += c.errors;
  }
  EXPECT_NEAR(total.qber(), 0.05, 0.015);
}

TEST(EntangledLink, QberMatchesAnalyticModel) {
  const EntangledParams params;
  EntangledLink link(params, 7);
  const EntangledModel model(params);
  SiftCount total;
  for (int i = 0; i < 4; ++i) {
    const SiftCount c = reference_sift(link.run_frame(500000));
    total.sifted += c.sifted;
    total.errors += c.errors;
  }
  EXPECT_NEAR(total.qber(), model.expected_qber(),
              0.3 * model.expected_qber() + 0.005);
}

TEST(EntangledLink, CoincidenceRateMatchesModel) {
  const EntangledParams params;
  EntangledLink link(params, 11);
  const EntangledModel model(params);
  const std::size_t slots = 1000000;
  link.run_frame(slots);
  const double measured =
      static_cast<double>(link.stats().coincidences) / slots;
  EXPECT_NEAR(measured, model.coincidence_prob(),
              0.15 * model.coincidence_prob());
}

TEST(EntangledLink, DoublePairsAreTheOnlyEveLeak) {
  EntangledParams params;
  params.double_pair_probability = 0.01;
  EntangledLink link(params, 13);
  const FrameResult frame = link.run_frame(500000);
  EXPECT_EQ(frame.eve.known.size(), link.stats().double_pairs);
  // Leakage scale: per EMITTED double pair (which is ~ received-bit scaled),
  // not per transmitted slot — the Sec. 6 distinction favoring this link.
  EXPECT_LT(frame.eve.known.size(), frame.slots / 50);
}

TEST(EntangledLink, RejectsBadParams) {
  EntangledParams bad;
  bad.pair_probability = 1.5;
  EXPECT_THROW(EntangledLink(bad, 1), std::invalid_argument);
  bad = EntangledParams{};
  bad.visibility = -0.1;
  EXPECT_THROW(EntangledLink(bad, 1), std::invalid_argument);
}

TEST(EntangledModel, SiftedRateScalesWithPump) {
  EntangledParams params;
  const double base = EntangledModel(params).sifted_rate_bps();
  params.pair_probability *= 2.0;
  EXPECT_NEAR(EntangledModel(params).sifted_rate_bps(), 2.0 * base, 1e-9);
}

}  // namespace
}  // namespace qkd::optics
