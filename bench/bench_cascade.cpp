// E5 (Sec. 5): "The protocol is adaptive, in that it will not disclose too
// many bits if the number of errors is low, but it will accurately detect
// and correct a large number of errors (up to some limit) even if that
// number is well above the historical average."
//
// The error-correction ablation: the paper's BBN LFSR-subset variant vs.
// classic Brassard-Salvail Cascade vs. the conventional parity baseline.
// Measures disclosure (the d that privacy amplification must burn), round
// trips (one batch of parity questions and its answer each), residual
// errors, and convergence across a QBER sweep — including the
// reproduction's headline negative result: the BBN variant's disclosure per
// error (~log2 n) dwarfs classic Cascade's at block sizes the paper's link
// actually produced. Each corrector's efficiency f = d / (n*h2(q)) is its
// disclosure over the Shannon bound (qkd-model-qt's theorErrorCorrection
// beside the actual cost). A second table sizes classic Cascade three ways
// at the link's batch size: from the exact q, from a 5 % sample, and from
// the sample pooled with the link's verified error record, as the pipeline
// does.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/qkd/cascade_bbn.hpp"
#include "src/qkd/cascade_classic.hpp"
#include "src/qkd/engine.hpp"
#include "src/qkd/parity_ec.hpp"

namespace {

using namespace qkd::proto;

struct Corrupted {
  qkd::BitVector alice;
  qkd::BitVector bob;
};

Corrupted make_corrupted(std::size_t n, double rate, std::uint64_t seed) {
  qkd::Rng rng(seed);
  Corrupted c;
  c.alice = rng.next_bits(n);
  c.bob = c.alice;
  for (std::size_t i = 0; i < n; ++i)
    if (rng.next_bool(rate)) c.bob.flip(i);
  return c;
}

/// Binary entropy h2(q), in bits.
double h2(double q) {
  if (q <= 0.0 || q >= 1.0) return 0.0;
  return -q * std::log2(q) - (1.0 - q) * std::log2(1.0 - q);
}

/// The Shannon bound n*h2(errors / n): the least any corrector discloses.
double shannon_bound(std::size_t n, std::size_t errors) {
  return static_cast<double>(n) *
         h2(static_cast<double>(errors) / static_cast<double>(n));
}

/// One corrector's cells of a row, over its trials.
struct TrialMeans {
  double disclosed = 0.0;    // mean d
  double round_trips = 0.0;  // mean rt
  double f = 0.0;            // sum of d over sum of n*h2(q)
  double residual = 0.0;     // mean errors left
  std::size_t converged = 0;  // trials that converged
};

/// `trials` strings of `n` bits at error rate `rate` (seeds 1000, 1001,
/// ...), each corrected by `correct(bob, oracle, rate)`.
template <typename CorrectFn>
TrialMeans run_trials(std::size_t n, double rate, std::size_t trials,
                      CorrectFn&& correct) {
  TrialMeans m;
  double bound = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    Corrupted c = make_corrupted(n, rate, 1000 + t);
    LocalParityOracle oracle(c.alice);
    bound += shannon_bound(n, c.alice.hamming_distance(c.bob));
    const EcStats stats = correct(c.bob, oracle, rate);
    m.disclosed += static_cast<double>(oracle.disclosed());
    m.round_trips += static_cast<double>(oracle.exchanges());
    m.residual += static_cast<double>(c.alice.hamming_distance(c.bob));
    m.converged += stats.converged ? 1 : 0;
  }
  m.f = bound > 0.0 ? m.disclosed / bound : 0.0;
  m.disclosed /= static_cast<double>(trials);
  m.round_trips /= static_cast<double>(trials);
  m.residual /= static_cast<double>(trials);
  return m;
}

/// One row of the sizing table, over its batches.
struct SizingRow {
  double messages = 0.0;   // mean round trips
  double disclosed = 0.0;  // mean d
  double f = 0.0;          // sum of d over sum of n*h2(q)
  std::size_t residual = 0;  // batches left with an error
};

/// Classic Cascade over `trials` batches of `n` kept bits at error rate
/// `rate`, each with its own 5 % sample, its first pass sized by
/// size(sample_errors, sample_bits); `verified(errors, n)` learns each
/// batch that corrected cleanly.
template <typename SizeFn, typename VerifiedFn>
SizingRow run_sizing(std::size_t n, double rate, std::size_t trials,
                     SizeFn&& size, VerifiedFn&& verified) {
  const std::size_t sample_bits = n / 19;  // 5 % of the n + n / 19 sifted
  SizingRow row;
  double bound = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    qkd::Rng rng(7000 + t);
    std::size_t sample_errors = 0;
    for (std::size_t i = 0; i < sample_bits; ++i)
      sample_errors += rng.next_bool(rate);
    Corrupted c = make_corrupted(n, rate, rng.next_u64());
    const std::size_t errors = c.alice.hamming_distance(c.bob);
    LocalParityOracle oracle(c.alice);
    const EcStats stats = classic_cascade_correct(
        c.bob, oracle, std::max(size(sample_errors, sample_bits), 0.01));
    row.messages += static_cast<double>(oracle.exchanges());
    row.disclosed += static_cast<double>(oracle.disclosed());
    bound += shannon_bound(n, errors);
    if (c.alice == c.bob)
      verified(stats.corrections, n);
    else
      ++row.residual;
  }
  row.f = bound > 0.0 ? row.disclosed / bound : 0.0;
  row.messages /= static_cast<double>(trials);
  row.disclosed /= static_cast<double>(trials);
  return row;
}

void print_sizing_table() {
  const std::size_t n = 1500, trials = 400;
  qkd::bench::row("");
  qkd::bench::row("classic Cascade's first-pass sizing at a 10 km batch "
                  "(n = %zu kept bits, %zu-bit sample, %zu batches a row)",
                  n, n / 19, trials);
  qkd::bench::row("%6s | %-16s | %6s %7s %5s %5s", "QBER%", "sized from",
                  "rt", "d", "f", "resid");
  for (double rate : {0.03, 0.06, 0.09}) {
    auto print = [&](const char* name, const SizingRow& r) {
      qkd::bench::row("%6.1f | %-16s | %6.1f %7.1f %5.2f %5zu", 100.0 * rate,
                      name, r.messages, r.disclosed, r.f, r.residual);
    };
    auto ignore = [](std::size_t, std::size_t) {};
    print("exact q", run_sizing(
                         n, rate, trials,
                         [&](std::size_t, std::size_t) { return rate; },
                         ignore));
    print("5% sample",
          run_sizing(
              n, rate, trials,
              [](std::size_t k, std::size_t m) {
                return static_cast<double>(k) / static_cast<double>(m);
              },
              ignore));
    ErrorHistory record;
    print("record + sample",
          run_sizing(
              n, rate, trials,
              [&](std::size_t k, std::size_t m) {
                return record.estimate(k, m);
              },
              [&](std::size_t errors, std::size_t bits) {
                record.record(errors, bits);
              }));
  }
}

void print_table() {
  qkd::bench::heading(
      "E5", "Sec. 5: error-correction disclosure / residual ablation");
  const std::size_t n = 4096, trials = 50;
  qkd::bench::row("block = %zu bits, %zu trials a rate; Shannon bound = "
                  "n*h2(q)",
                  n, trials);
  qkd::bench::row("d, rt (round trips: parity batches) and resid (errors "
                  "left) are means; f = sum d / sum n*h2(q); conv counts "
                  "converged trials");
  qkd::bench::row(
      "%6s | %7s %5s %6s %5s %4s | %9s %5s %6s %5s %4s | %7s %5s %6s %5s %4s",
      "QBER%", "bbn:d", "f", "rt", "resid", "conv", "classic:d", "f", "rt",
      "resid", "conv", "naive:d", "f", "rt", "resid", "conv");
  for (double rate : {0.005, 0.01, 0.03, 0.05, 0.07, 0.09, 0.11}) {
    const TrialMeans bbn =
        run_trials(n, rate, trials, [](auto& bob, auto& oracle, double) {
          return bbn_cascade_correct(bob, oracle);
        });
    const TrialMeans classic =
        run_trials(n, rate, trials, [](auto& bob, auto& oracle, double q) {
          return classic_cascade_correct(bob, oracle, std::max(q, 0.01));
        });
    const TrialMeans naive =
        run_trials(n, rate, trials, [](auto& bob, auto& oracle, double) {
          return naive_parity_correct(bob, oracle);
        });
    auto cells = [](const TrialMeans& m) {
      return std::tuple(m.disclosed, m.f, m.round_trips, m.residual,
                        m.converged);
    };
    const auto [bd, bf, brt, bres, bconv] = cells(bbn);
    const auto [cd, cf, crt, cres, cconv] = cells(classic);
    const auto [nd, nf, nrt, nres, nconv] = cells(naive);
    qkd::bench::row(
        "%6.1f | %7.0f %5.2f %6.1f %5.1f %4zu | %9.0f %5.2f %6.1f %5.1f %4zu "
        "| %7.0f %5.2f %6.1f %5.1f %4zu",
        100.0 * rate, bd, bf, brt, bres, bconv, cd, cf, crt, cres, cconv, nd,
        nf, nrt, nres, nconv);
  }
  print_sizing_table();
  qkd::bench::row("");
  qkd::bench::row("adaptivity check (the paper's claim): zero-error blocks");
  for (std::size_t clean_n : {1024u, 4096u, 16384u}) {
    const TrialMeans bbn =
        run_trials(clean_n, 0.0, 1, [](auto& bob, auto& oracle, double) {
          return bbn_cascade_correct(bob, oracle);
        });
    qkd::bench::row("  n=%6zu: BBN variant disclosed %.0f bits "
                    "(= one round of 64 subset parities)",
                    clean_n, bbn.disclosed);
  }
}

void bm_bbn_cascade(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double rate = 0.06;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Corrupted c = make_corrupted(n, rate, seed++);
    LocalParityOracle oracle(c.alice);
    benchmark::DoNotOptimize(bbn_cascade_correct(c.bob, oracle));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(bm_bbn_cascade)->Arg(1024)->Arg(4096);

void bm_classic_cascade(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double rate = 0.06;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Corrupted c = make_corrupted(n, rate, seed++);
    LocalParityOracle oracle(c.alice);
    benchmark::DoNotOptimize(classic_cascade_correct(c.bob, oracle, rate));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(bm_classic_cascade)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
