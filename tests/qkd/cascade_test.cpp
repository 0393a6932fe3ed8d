// Error-correction strategy tests: the BBN LFSR-subset Cascade variant, the
// classic Brassard-Salvail Cascade baseline, and the naive parity baseline.
#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/qkd/cascade_bbn.hpp"
#include "src/qkd/cascade_classic.hpp"
#include "src/qkd/parity_ec.hpp"

namespace qkd::proto {
namespace {

struct Corrupted {
  qkd::BitVector alice;
  qkd::BitVector bob;
  std::size_t errors;
};

Corrupted make_corrupted(std::size_t n, double error_rate, qkd::Rng& rng) {
  Corrupted c;
  c.alice = rng.next_bits(n);
  c.bob = c.alice;
  c.errors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_bool(error_rate)) {
      c.bob.flip(i);
      ++c.errors;
    }
  }
  return c;
}

// ---------------------------------------------------------------- BBN -----

using CascadeSweepParam = std::tuple<std::size_t /*n*/, double /*error rate*/>;

class BbnCascadeSweep : public ::testing::TestWithParam<CascadeSweepParam> {};

TEST_P(BbnCascadeSweep, CorrectsAllErrors) {
  const auto [n, rate] = GetParam();
  QKD_SEEDED_RNG(rng, 1000 + n);
  Corrupted c = make_corrupted(n, rate, rng);
  LocalParityOracle oracle(c.alice);
  const EcStats stats = bbn_cascade_correct(c.bob, oracle);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(c.bob, c.alice) << "n=" << n << " rate=" << rate;
  EXPECT_EQ(stats.parity_queries, oracle.disclosed());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRates, BbnCascadeSweep,
    ::testing::Combine(::testing::Values(64, 500, 1000, 4000),
                       ::testing::Values(0.0, 0.01, 0.03, 0.07, 0.11)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_rate" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 1000));
    });

TEST(BbnCascade, NoErrorsDisclosesOnlySubsetParities) {
  // Adaptivity claim (Sec. 5): "it will not disclose too many bits if the
  // number of errors is low". With zero errors the cost is exactly one
  // clean round of subset parities.
  QKD_SEEDED_RNG(rng, 7);
  Corrupted c = make_corrupted(2000, 0.0, rng);
  LocalParityOracle oracle(c.alice);
  const BbnCascadeConfig config;
  const EcStats stats = bbn_cascade_correct(c.bob, oracle, config);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.parity_queries, config.subsets_per_round);
  EXPECT_EQ(stats.corrections, 0u);
}

TEST(BbnCascade, DisclosureGrowsWithErrorRate) {
  QKD_SEEDED_RNG(rng, 11);
  std::size_t prev = 0;
  for (double rate : {0.01, 0.05, 0.10}) {
    Corrupted c = make_corrupted(4000, rate, rng);
    LocalParityOracle oracle(c.alice);
    const EcStats stats = bbn_cascade_correct(c.bob, oracle);
    EXPECT_TRUE(stats.converged);
    EXPECT_GT(stats.parity_queries, prev);
    prev = stats.parity_queries;
  }
}

TEST(BbnCascade, HandlesBurstWellAboveHistoricalAverage) {
  // "it will accurately detect and correct a large number of errors (up to
  // some limit) even if that number is well above the historical average."
  QKD_SEEDED_RNG(rng, 13);
  Corrupted c;
  c.alice = rng.next_bits(1000);
  c.bob = c.alice;
  for (std::size_t i = 100; i < 150; ++i) c.bob.flip(i);  // dense burst
  LocalParityOracle oracle(c.alice);
  const EcStats stats = bbn_cascade_correct(c.bob, oracle);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(c.bob, c.alice);
  EXPECT_EQ(stats.corrections, 50u);
}

TEST(BbnCascade, EmptyInputConverges) {
  qkd::BitVector empty;
  LocalParityOracle oracle(empty);
  EXPECT_TRUE(bbn_cascade_correct(empty, oracle).converged);
}

TEST(BbnCascade, SingleBitString) {
  qkd::BitVector alice{1};
  qkd::BitVector bob{0};
  LocalParityOracle oracle(alice);
  const EcStats stats = bbn_cascade_correct(bob, oracle);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(bob, alice);
  EXPECT_EQ(stats.corrections, 1u);
}

// ------------------------------------------------------------ classic -----

/// Upper bound on the per-trial rate at which four-pass classic Cascade
/// leaves a residual error in a cell: the rate measured over 20,000 reseeds
/// of an independent stream (seeds 7000 + n) plus 3 sd, rounded up to two
/// digits, or 3e-4 where none of the 20,000 failed (-ln(0.0025) / 20,000).
/// With one block spanning the whole string (n = 64, and n = 500 at 1%) an
/// even number of errors never shows in any parity, so small cells are high.
double residual_rate_bound(std::size_t n, double rate) {
  if (rate == 0.0) return 0.0;  // nothing to miss
  const int r = static_cast<int>(rate * 100 + 0.5);
  switch (n) {
    case 64: return r == 1 ? 0.14 : r == 3 ? 0.24 : 0.15;
    case 500: return r == 1 ? 0.16 : r == 3 ? 0.024 : 0.0076;
    case 1000: return r == 1 ? 0.048 : r == 3 ? 0.0043 : 3e-4;
    default: return r == 1 ? 0.0057 : r == 3 ? 6.7e-4 : 3e-4;
  }
}

/// Smallest k with P[Binomial(trials, p) > k] <= alpha.
std::size_t binomial_upper(std::size_t trials, double p, double alpha) {
  if (p <= 0.0) return 0;
  double cdf = 0.0;
  for (std::size_t k = 0; k < trials; ++k) {
    cdf += std::exp(std::lgamma(trials + 1.0) - std::lgamma(k + 1.0) -
                    std::lgamma(trials - k + 1.0) + k * std::log(p) +
                    (trials - k) * std::log1p(-p));
    if (1.0 - cdf <= alpha) return k;
  }
  return trials;
}

class ClassicCascadeSweep : public ::testing::TestWithParam<CascadeSweepParam> {
};

TEST_P(ClassicCascadeSweep, CorrectsAllErrors) {
  // Four passes leave a residual error now and then, which the verify stage
  // catches. The law: of 2,000 reseeded trials per cell at most k end with
  // a residual error, k the 1e-6 binomial tail at the cell's stated
  // per-trial rate. Twelve cells carry errors, so a correct corrector fails
  // the sweep with probability <= 1.2e-5; one that skips its last pass
  // passes every cell with probability ~1e-8.
  const auto [n, rate] = GetParam();
  QKD_SEEDED_RNG(rng, 2000 + n);
  constexpr std::size_t kTrials = 2000;
  std::size_t residual = 0, unconverged = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    Corrupted c = make_corrupted(n, rate, rng);
    LocalParityOracle oracle(c.alice);
    const EcStats stats =
        classic_cascade_correct(c.bob, oracle, std::max(rate, 0.01));
    unconverged += !stats.converged;
    residual += !(c.bob == c.alice);
  }
  EXPECT_EQ(unconverged, 0u);
  EXPECT_LE(residual,
            binomial_upper(kTrials, residual_rate_bound(n, rate), 1e-6))
      << "n=" << n << " rate=" << rate;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRates, ClassicCascadeSweep,
    ::testing::Combine(::testing::Values(64, 500, 1000, 4000),
                       ::testing::Values(0.0, 0.01, 0.03, 0.07)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_rate" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 1000));
    });

TEST(ClassicCascade, BlockSizeAdaptsToQberEstimate) {
  // A lower estimated QBER means larger first-pass blocks and fewer parity
  // disclosures when the string is in fact clean.
  QKD_SEEDED_RNG(rng, 17);
  Corrupted clean = make_corrupted(4000, 0.0, rng);
  LocalParityOracle low_oracle(clean.alice);
  qkd::BitVector bob_low = clean.bob;
  const EcStats low = classic_cascade_correct(bob_low, low_oracle, 0.01);

  LocalParityOracle high_oracle(clean.alice);
  qkd::BitVector bob_high = clean.bob;
  const EcStats high = classic_cascade_correct(bob_high, high_oracle, 0.10);

  EXPECT_LT(low.parity_queries, high.parity_queries);
}

TEST(ClassicCascade, DisclosureStaysNearTheShannonBound) {
  // The E5 oracle as a law: at the link's batch size, sized from the exact
  // error rate, classic Cascade discloses f = d / (n*h2(q)) ~1.21 of the
  // Shannon bound at 6 % (E5's sizing table). Over 200 batches the pooled
  // f stays below 1.3, far outside its spread (~0.01); a corrector that
  // lost its pass-1 sizing or asked every block twice would not.
  QKD_SEEDED_RNG(rng, 61);
  constexpr std::size_t kN = 1500, kTrials = 200;
  constexpr double kRate = 0.06;
  double disclosed = 0.0, bound = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    Corrupted c = make_corrupted(kN, kRate, rng);
    LocalParityOracle oracle(c.alice);
    const EcStats stats = classic_cascade_correct(c.bob, oracle, kRate);
    ASSERT_TRUE(stats.converged);
    const double q = static_cast<double>(c.errors) / kN;
    disclosed += static_cast<double>(oracle.disclosed());
    bound += kN * (-q * std::log2(q) - (1 - q) * std::log2(1 - q));
  }
  const double f = disclosed / bound;
  EXPECT_GT(f, 1.0);  // no corrector beats the bound
  EXPECT_LT(f, 1.3);
}

TEST(ClassicCascade, EmptyInputConverges) {
  qkd::BitVector empty;
  LocalParityOracle oracle(empty);
  EXPECT_TRUE(classic_cascade_correct(empty, oracle, 0.03).converged);
}

/// Alice's oracle with one answer of the first batch inverted: a parity
/// response altered in transit that still decodes.
class LyingParityOracle final : public ParityOracle {
 public:
  LyingParityOracle(const qkd::BitVector& bits, std::size_t lie)
      : honest_(bits), lie_(lie) {}

  qkd::BitVector parities(std::span<const ParityQuery> queries) override {
    qkd::BitVector answers = honest_.parities(queries);
    if (batches_++ == 0) answers.flip(lie_);
    return answers;
  }

 private:
  LocalParityOracle honest_;
  std::size_t lie_;
  std::size_t batches_ = 0;
};

TEST(ClassicCascade, WrongParityAnswerEndsUnconverged) {
  // Every pass cuts the same string into blocks, so each pass's block
  // parities sum to the whole string's parity. One wrong answer breaks that
  // for its pass alone: no string satisfies every recorded parity, the
  // fixes undo each other forever, and the corrector must give up once it
  // has made more fixes than a truthful dialogue ever needs (n).
  QKD_SEEDED_RNG(rng, 29);
  constexpr std::size_t kBits = 4000;
  for (int trial = 0; trial < 10; ++trial) {
    Corrupted c = make_corrupted(kBits, 0.03, rng);
    // The first batch holds every block parity, at least 100 of them here.
    LyingParityOracle oracle(c.alice, rng.next_below(100));
    const EcStats stats = classic_cascade_correct(c.bob, oracle, 0.03);
    EXPECT_FALSE(stats.converged) << "trial " << trial;
    EXPECT_EQ(stats.corrections, kBits + 1) << "trial " << trial;
  }
}

// ------------------------------------------------ serial reference -----

/// Classic Cascade as a serial dialogue, one question per exchange: a FIFO
/// of mismatched blocks, each bisected alone. The lockstep corrector must
/// disclose about as much and leave the same residual errors.
EcStats serial_cascade_reference(qkd::BitVector& bob_bits, ParityOracle& alice,
                                 double qber_estimate,
                                 const ClassicCascadeConfig& config = {}) {
  struct Pass {
    std::uint32_t seed;
    std::size_t block_size;
    std::vector<std::uint32_t> perm, inv;
    std::vector<std::optional<bool>> alice;
    std::vector<bool> bob;
    std::size_t begin(std::size_t b) const { return b * block_size; }
    std::size_t end(std::size_t b) const {
      return std::min(perm.size(), (b + 1) * block_size);
    }
  };
  EcStats stats;
  const std::size_t n = bob_bits.size();
  stats.converged = true;
  if (n == 0) return stats;
  const std::size_t k1 = std::clamp(
      static_cast<std::size_t>(config.block_factor /
                               std::max(qber_estimate, 1e-4)),
      config.min_block, n);
  auto ask = [&](const Pass& pass, std::size_t lo, std::size_t hi) {
    ++stats.parity_queries;
    return alice.parity({ParityQuery::Kind::kPermutedRange, pass.seed,
                         static_cast<std::uint32_t>(lo),
                         static_cast<std::uint32_t>(hi)});
  };
  std::vector<Pass> passes;
  std::deque<std::pair<std::size_t, std::size_t>> work;
  for (unsigned pi = 0; pi < config.passes; ++pi) {
    ++stats.rounds;
    Pass pass;
    pass.seed = config.seed_base + pi;
    pass.block_size = std::min<std::size_t>(n, k1 << pi);
    pass.perm = seeded_permutation(pass.seed, n);
    pass.inv.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      pass.inv[pass.perm[i]] = static_cast<std::uint32_t>(i);
    const std::size_t blocks = (n + pass.block_size - 1) / pass.block_size;
    pass.alice.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b)
      pass.bob.push_back(
          parity_of_members(bob_bits, pass.perm, pass.begin(b), pass.end(b)));
    passes.push_back(std::move(pass));
    Pass& fresh = passes.back();
    for (std::size_t b = 0; b < blocks; ++b) {
      fresh.alice[b] = ask(fresh, fresh.begin(b), fresh.end(b));
      if (*fresh.alice[b] != fresh.bob[b]) work.emplace_back(pi, b);
    }
    while (!work.empty()) {
      const auto [wp, wb] = work.front();
      work.pop_front();
      Pass& p = passes[wp];
      if (*p.alice[wb] == p.bob[wb]) continue;  // healed by another fix
      std::size_t lo = p.begin(wb), hi = p.end(wb);
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (ask(p, lo, mid) != parity_of_members(bob_bits, p.perm, lo, mid))
          hi = mid;
        else
          lo = mid;
      }
      const std::uint32_t fixed = p.perm[lo];
      bob_bits.flip(fixed);
      ++stats.corrections;
      for (std::size_t opi = 0; opi < passes.size(); ++opi) {
        Pass& other = passes[opi];
        const std::size_t ob = other.inv[fixed] / other.block_size;
        other.bob[ob] = !other.bob[ob];
        if (other.alice[ob].has_value() && *other.alice[ob] != other.bob[ob])
          work.emplace_back(opi, ob);
      }
    }
  }
  return stats;
}

TEST(LockstepCascade, MatchesTheSerialReferenceAcrossTheE5Sweep) {
  // Law: over E5's QBER sweep (n = 4096, the bench's rates), lockstep
  // Cascade discloses at most 1 % more than the serial dialogue, leaves
  // the same residual errors and converges alike, in a small fraction of
  // the exchanges.
  QKD_SEEDED_RNG(rng, 4096);
  constexpr std::size_t kN = 4096;
  constexpr int kTrials = 40;
  for (double rate : {0.005, 0.01, 0.03, 0.05, 0.07, 0.09, 0.11}) {
    std::size_t serial_d = 0, lockstep_d = 0, serial_resid = 0,
                lockstep_resid = 0, serial_x = 0, lockstep_x = 0;
    for (int t = 0; t < kTrials; ++t) {
      const Corrupted c = make_corrupted(kN, rate, rng);
      const std::uint32_t seed = rng.next_u32();
      ClassicCascadeConfig config;
      config.seed_base = seed;

      qkd::BitVector serial_bob = c.bob;
      LocalParityOracle serial_oracle(c.alice);
      const EcStats serial =
          serial_cascade_reference(serial_bob, serial_oracle, rate, config);
      qkd::BitVector lockstep_bob = c.bob;
      LocalParityOracle lockstep_oracle(c.alice);
      const EcStats lockstep =
          classic_cascade_correct(lockstep_bob, lockstep_oracle, rate, config);

      EXPECT_EQ(lockstep.converged, serial.converged);
      EXPECT_EQ(lockstep.parity_queries, lockstep_oracle.disclosed());
      serial_d += serial_oracle.disclosed();
      lockstep_d += lockstep_oracle.disclosed();
      serial_resid += c.alice.hamming_distance(serial_bob);
      lockstep_resid += c.alice.hamming_distance(lockstep_bob);
      serial_x += serial_oracle.exchanges();
      lockstep_x += lockstep_oracle.exchanges();
    }
    SCOPED_TRACE(::testing::Message() << "rate " << rate);
    EXPECT_LE(static_cast<double>(lockstep_d),
              1.01 * static_cast<double>(serial_d));
    EXPECT_EQ(lockstep_resid, serial_resid);
    EXPECT_LT(4 * lockstep_x, serial_x);
  }
}

// -------------------------------------------------------------- naive -----

TEST(NaiveParity, FixesIsolatedSingleErrors) {
  QKD_SEEDED_RNG(rng, 19);
  qkd::BitVector alice = rng.next_bits(1024);
  qkd::BitVector bob = alice;
  bob.flip(100);
  LocalParityOracle oracle(alice);
  const EcStats stats = naive_parity_correct(bob, oracle);
  EXPECT_EQ(bob, alice);
  EXPECT_EQ(stats.corrections, 1u);
}

TEST(NaiveParity, LeavesResidualErrorsAtHighRates) {
  // One pass of block parities misses even-error blocks; at 7 % QBER over
  // 4k bits some residuals are essentially certain. This is the failure
  // mode that motivates Cascade (bench E5 quantifies it).
  QKD_SEEDED_RNG(rng, 23);
  Corrupted c = make_corrupted(4096, 0.07, rng);
  LocalParityOracle oracle(c.alice);
  const EcStats stats = naive_parity_correct(c.bob, oracle);
  EXPECT_FALSE(stats.converged);  // protocol cannot certify equality
  EXPECT_GT(c.alice.hamming_distance(c.bob), 0u);
  EXPECT_LT(c.alice.hamming_distance(c.bob), 290u);  // but most got fixed
}

TEST(NaiveParity, DisclosesRoughlyOneBitPerBlock) {
  QKD_SEEDED_RNG(rng, 29);
  Corrupted c = make_corrupted(4096, 0.0, rng);
  LocalParityOracle oracle(c.alice);
  NaiveParityConfig config;
  config.block_size = 64;
  const EcStats stats = naive_parity_correct(c.bob, oracle, config);
  EXPECT_EQ(stats.parity_queries, 4096u / 64u);
}

// ------------------------------------------------- comparative checks -----

TEST(ErrorCorrectionComparison, BbnAndClassicBothConvergeNaiveDoesNot) {
  const double rate = 0.06;
  QKD_SEEDED_RNG(rng, 31);
  Corrupted base = make_corrupted(4096, rate, rng);

  qkd::BitVector bbn_bob = base.bob;
  LocalParityOracle bbn_oracle(base.alice);
  const EcStats bbn = bbn_cascade_correct(bbn_bob, bbn_oracle);

  qkd::BitVector classic_bob = base.bob;
  LocalParityOracle classic_oracle(base.alice);
  const EcStats classic =
      classic_cascade_correct(classic_bob, classic_oracle, rate);

  qkd::BitVector naive_bob = base.bob;
  LocalParityOracle naive_oracle(base.alice);
  naive_parity_correct(naive_bob, naive_oracle);

  EXPECT_EQ(bbn_bob, base.alice);
  EXPECT_EQ(classic_bob, base.alice);
  EXPECT_TRUE(bbn.converged);
  EXPECT_TRUE(classic.converged);
  EXPECT_GT(naive_bob.hamming_distance(base.alice), 0u);
}

}  // namespace
}  // namespace qkd::proto
