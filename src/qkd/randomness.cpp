#include "src/qkd/randomness.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace qkd::proto {
namespace {

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

}  // namespace

RandomnessReport test_randomness(const qkd::BitVector& bits) {
  RandomnessReport report;
  const std::size_t n = bits.size();
  if (n < 64) return report;

  // --- Monobit: ones count vs. Binomial(n, 1/2). ---------------------------
  const std::size_t ones = bits.popcount();
  const double mean = static_cast<double>(n) / 2.0;
  const double sigma = std::sqrt(static_cast<double>(n)) / 2.0;
  report.monobit_sigma = std::abs(static_cast<double>(ones) - mean) / sigma;

  // --- Longest run of identical bits, read a word at a time. ---------------
  const auto words = bits.words();
  std::size_t run = 0;
  bool previous = !(words[0] & 1);
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit = (words[i >> 6] >> (i & 63)) & 1;
    run = bit == previous ? run + 1 : 1;
    previous = bit;
    report.longest_run = std::max(report.longest_run, run);
  }

  // --- Poker test: chi-square over 4-bit block frequencies. ----------------
  // Block b is bits 4b..4b+3, the first the most significant. Bits sit in
  // their words lowest first, so each nibble is read back reversed.
  constexpr std::array<unsigned, 16> kReversed = {0, 8, 4, 12, 2, 10, 6, 14,
                                                  1, 9, 5, 13, 3, 11, 7, 15};
  std::array<std::size_t, 16> counts{};
  const std::size_t blocks = n / 4;
  for (std::size_t b = 0; b < blocks; ++b)
    ++counts[kReversed[(words[b >> 4] >> (4 * (b & 15))) & 15]];
  const double expected = static_cast<double>(blocks) / 16.0;
  for (std::size_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    report.poker_chi2 += diff * diff / expected;
  }

  // --- Acceptance bands and the shortening measure. -------------------------
  // Monobit: 4.5 sigma two-sided (~7e-6 false alarm). Longest run: a fair
  // string of length n has runs ~ log2(n) + few; flag at log2(n) + 10.
  // Poker: chi-square with 15 dof, mean 15, sd sqrt(30); flag at +6 sd.
  const bool monobit_ok = report.monobit_sigma < 4.5;
  const bool run_ok =
      static_cast<double>(report.longest_run) <
      std::log2(static_cast<double>(n)) + 10.0;
  const bool poker_ok = report.poker_chi2 < 15.0 + 6.0 * std::sqrt(30.0);
  report.passed = monobit_ok && run_ok && poker_ok;

  if (!monobit_ok) {
    // Min-entropy shortfall of an i.i.d. biased source with the observed
    // ones fraction: n * (1 - h2(p)).
    const double p = static_cast<double>(ones) / static_cast<double>(n);
    report.non_randomness_bits +=
        static_cast<double>(n) * (1.0 - binary_entropy(p));
  }
  // Structural failures are charged a flat penalty: the tests detect the
  // defect but cannot bound it tightly, so shorten aggressively (n/8 each).
  if (!run_ok) report.non_randomness_bits += static_cast<double>(n) / 8.0;
  if (!poker_ok) report.non_randomness_bits += static_cast<double>(n) / 8.0;
  report.non_randomness_bits =
      std::min(report.non_randomness_bits, static_cast<double>(n));
  return report;
}

}  // namespace qkd::proto
