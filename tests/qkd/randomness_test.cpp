#include "src/qkd/randomness.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

TEST(Randomness, FairBitsPass) {
  QKD_SEEDED_RNG(rng, 1);
  for (std::size_t n : {64u, 1000u, 10000u, 100000u}) {
    const RandomnessReport report = test_randomness(rng.next_bits(n));
    EXPECT_TRUE(report.passed) << n;
    EXPECT_DOUBLE_EQ(report.non_randomness_bits, 0.0) << n;
  }
}

TEST(Randomness, TinyInputsHaveNoPower) {
  const RandomnessReport report =
      test_randomness(qkd::BitVector::from_string("1111"));
  EXPECT_TRUE(report.passed);
  EXPECT_DOUBLE_EQ(report.non_randomness_bits, 0.0);
}

TEST(Randomness, DetectorBiasIsCaught) {
  // The paper's example: "non-randomness in the raw QKD bits (detector
  // bias, for example)". 70/30 bias over 10k bits is a ~40-sigma monobit
  // failure; the shortening approximates the min-entropy shortfall.
  QKD_SEEDED_RNG(rng, 2);
  qkd::BitVector biased(10000);
  for (std::size_t i = 0; i < biased.size(); ++i)
    biased.set(i, rng.next_bool(0.7));
  const RandomnessReport report = test_randomness(biased);
  EXPECT_FALSE(report.passed);
  EXPECT_GT(report.monobit_sigma, 10.0);
  // Monobit shortfall alone is n*(1 - h2(0.7)) ~ 1187 bits; the bias also
  // trips the poker test (biased nibbles are non-uniform), adding its flat
  // n/8 = 1250 penalty.
  EXPECT_GT(report.non_randomness_bits, 1100.0);
  EXPECT_LT(report.non_randomness_bits, 3000.0);
}

TEST(Randomness, StuckDetectorIsCaught) {
  qkd::BitVector stuck(5000);  // all zeros
  const RandomnessReport report = test_randomness(stuck);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.longest_run, 5000u);
  // Everything must be thrown away.
  EXPECT_DOUBLE_EQ(report.non_randomness_bits, 5000.0);
}

TEST(Randomness, PeriodicPatternFailsPoker) {
  // Alternating 0101... passes monobit exactly but is grossly structured.
  qkd::BitVector alternating(8192);
  for (std::size_t i = 0; i < alternating.size(); i += 2)
    alternating.set(i, true);
  const RandomnessReport report = test_randomness(alternating);
  EXPECT_LT(report.monobit_sigma, 1.0);
  EXPECT_FALSE(report.passed);
  EXPECT_GT(report.poker_chi2, 100.0);
  EXPECT_GT(report.non_randomness_bits, 0.0);
}

TEST(Randomness, MildBiasPassesWithoutCharge) {
  // 50.5% ones over 10k bits is within 4.5 sigma: no false alarm.
  QKD_SEEDED_RNG(rng, 3);
  qkd::BitVector mild(10000);
  for (std::size_t i = 0; i < mild.size(); ++i)
    mild.set(i, rng.next_bool(0.505));
  const RandomnessReport report = test_randomness(mild);
  EXPECT_TRUE(report.passed);
}

}  // namespace
}  // namespace qkd::proto
