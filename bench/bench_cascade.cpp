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
// actually produced.
#include <benchmark/benchmark.h>

#include <tuple>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/qkd/cascade_bbn.hpp"
#include "src/qkd/cascade_classic.hpp"
#include "src/qkd/parity_ec.hpp"

namespace {

using namespace qkd::proto;

struct TrialResult {
  std::size_t disclosed;
  std::size_t round_trips;
  std::size_t corrections;
  std::size_t residual;
  bool converged;
};

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

template <typename CorrectFn>
TrialResult run_trial(std::size_t n, double rate, std::uint64_t seed,
                      CorrectFn&& correct) {
  Corrupted c = make_corrupted(n, rate, seed);
  LocalParityOracle oracle(c.alice);
  const EcStats stats = correct(c.bob, oracle, rate);
  return TrialResult{oracle.disclosed(), oracle.exchanges(), stats.corrections,
                     c.alice.hamming_distance(c.bob), stats.converged};
}

void print_table() {
  qkd::bench::heading(
      "E5", "Sec. 5: error-correction disclosure / residual ablation");
  const std::size_t n = 4096;
  qkd::bench::row("block = %zu bits; Shannon bound = n*h2(q)", n);
  qkd::bench::row("rt = round trips (parity batches) per correction");
  qkd::bench::row("%6s | %7s %5s %5s %4s | %9s %5s %5s %4s | %7s %5s %5s %4s",
                  "QBER%", "bbn:d", "rt", "resid", "conv", "classic:d", "rt",
                  "resid", "conv", "naive:d", "rt", "resid", "conv");
  for (double rate : {0.005, 0.01, 0.03, 0.05, 0.07, 0.09, 0.11}) {
    const auto bbn = run_trial(n, rate, 1000,
                               [](auto& bob, auto& oracle, double) {
                                 return bbn_cascade_correct(bob, oracle);
                               });
    const auto classic =
        run_trial(n, rate, 1000, [](auto& bob, auto& oracle, double q) {
          return classic_cascade_correct(bob, oracle, std::max(q, 0.01));
        });
    const auto naive = run_trial(n, rate, 1000,
                                 [](auto& bob, auto& oracle, double) {
                                   return naive_parity_correct(bob, oracle);
                                 });
    auto cells = [](const TrialResult& r) {
      return std::tuple(r.disclosed, r.round_trips, r.residual,
                        r.converged ? "yes" : "NO");
    };
    const auto [bd, brt, bres, bconv] = cells(bbn);
    const auto [cd, crt, cres, cconv] = cells(classic);
    const auto [nd, nrt, nres, nconv] = cells(naive);
    qkd::bench::row(
        "%6.1f | %7zu %5zu %5zu %4s | %9zu %5zu %5zu %4s | %7zu %5zu %5zu %4s",
        100.0 * rate, bd, brt, bres, bconv, cd, crt, cres, cconv, nd, nrt,
        nres, nconv);
  }
  qkd::bench::row("");
  qkd::bench::row("adaptivity check (the paper's claim): zero-error blocks");
  for (std::size_t clean_n : {1024u, 4096u, 16384u}) {
    const auto bbn = run_trial(clean_n, 0.0, 7,
                               [](auto& bob, auto& oracle, double) {
                                 return bbn_cascade_correct(bob, oracle);
                               });
    qkd::bench::row("  n=%6zu: BBN variant disclosed %zu bits "
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
