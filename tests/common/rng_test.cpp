#include "src/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

namespace qkd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(7);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent2(7);
  parent2.fork();
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());
  int same = 0;
  Rng child_copy = child;
  for (int i = 0; i < 64; ++i) same += parent.next_u64() == child_copy.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(9);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Rng, PoissonMeanAndVarianceMatch) {
  Rng rng(17);
  // QKD regime: mu = 0.1 photons/pulse.
  for (double mu : {0.1, 1.0, 5.0}) {
    const int n = 200000;
    double sum = 0, sum_sq = 0;
    for (int i = 0; i < n; ++i) {
      const double k = rng.next_poisson(mu);
      sum += k;
      sum_sq += k * k;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, mu, 0.05 * mu + 0.01) << "mu=" << mu;
    EXPECT_NEAR(var, mu, 0.1 * mu + 0.02) << "mu=" << mu;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(19);
  EXPECT_EQ(rng.next_poisson(0.0), 0u);
  EXPECT_THROW(rng.next_poisson(-1.0), std::invalid_argument);
}

TEST(Rng, PoissonMultiPhotonFractionMatchesTheory) {
  // P(N >= 2 | mu = 0.1) = 1 - e^-0.1 (1 + 0.1) ~= 0.00467 — the multi-photon
  // fraction that drives the PNS attack surface in the entropy estimate.
  Rng rng(23);
  const double mu = 0.1;
  const int n = 500000;
  int multi = 0;
  for (int i = 0; i < n; ++i) multi += rng.next_poisson(mu) >= 2;
  const double expected = 1.0 - std::exp(-mu) * (1.0 + mu);
  EXPECT_NEAR(static_cast<double>(multi) / n, expected, 0.0006);
}

TEST(Rng, ExponentialFillsEquiprobableBins) {
  // 2^22 Exp(1) draws over 64 bins of equal mass 1/64: bin k holds
  // x with floor(64 (1 - e^-x)) = k. Chi-square df 63: the bound of 135
  // fails a correct sampler with probability ~3.7e-7.
  Rng rng(29);
  constexpr std::size_t kDraws = std::size_t{1} << 22, kBins = 64;
  std::array<std::size_t, kBins> counts{};
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double x = rng.next_exponential();
    ASSERT_GE(x, 0.0);
    const auto bin = static_cast<std::size_t>(-std::expm1(-x) * kBins);
    ++counts[std::min(bin, kBins - 1)];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi_square = 0.0;
  for (std::size_t n : counts) {
    const double diff = static_cast<double>(n) - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 135.0);
}

TEST(Rng, ExponentialTailBeyondTheZigguratBase) {
  // Draws past the base layer's edge r ~ 7.697 come only from its tail
  // branch, r - ln U. Their share is e^-r ~ 4.5e-4: ~1,900 of 2^22, met
  // within 5 sigma (false-failure ~5.7e-7), and they must reach past
  // r + 1 as a memoryless tail does (probability of none ~e^-700).
  Rng rng(31);
  constexpr std::size_t kDraws = std::size_t{1} << 22;
  const double r = detail::ExpZiggurat::kR;
  std::size_t tail = 0, far = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double x = rng.next_exponential();
    tail += x > r;
    far += x > r + 1.0;
  }
  const double p = std::exp(-r);
  const double n = static_cast<double>(kDraws);
  EXPECT_NEAR(static_cast<double>(tail) / n, p,
              5.0 * std::sqrt(p * (1.0 - p) / n));
  EXPECT_GT(far, 0u);
}

TEST(Rng, NextBitsBalanced) {
  Rng rng(29);
  const BitVector bits = rng.next_bits(100000);
  const double ones = static_cast<double>(bits.popcount()) / bits.size();
  EXPECT_NEAR(ones, 0.5, 0.01);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_NE(splitmix64(s2), first);
}

}  // namespace
}  // namespace qkd
