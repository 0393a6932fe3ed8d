// E6 (Appendix): the defense functions — Bennett's estimate vs. Slutsky's
// defense frontier — and the resultant entropy
//   H = b - d - r - t_defense - t_multiphoton - c*sqrt(s_def^2 + s_multi^2).
//
// "Neither appears to be completely accurate — Bennett's estimate does not
// take into account all the information Eve can get from indirect attacks
// ... while Slutsky's estimate may be asymptotically correct, it is overly
// conservative for finite-length blocks." The sweep makes both halves of
// that sentence quantitative.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/qkd/entropy.hpp"

namespace {

using namespace qkd::proto;

void print_table() {
  qkd::bench::heading("E6", "Appendix: Bennett vs. Slutsky defense functions");

  const std::size_t b = 10000;
  qkd::bench::row("per-10k-sifted-bit charges (t = Eve's information bound):");
  qkd::bench::row("%7s | %12s %10s | %12s %10s", "QBER%", "bennett t",
                  "sigma", "slutsky t", "sigma");
  for (double q : {0.0, 0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.15, 0.25,
                   0.3333}) {
    const std::size_t e = static_cast<std::size_t>(q * b);
    const DefenseEstimate bennett = bennett_defense(e);
    const DefenseEstimate slutsky = slutsky_defense(b, e);
    qkd::bench::row("%7.2f | %12.1f %10.1f | %12.1f %10.1f", 100.0 * q,
                    bennett.t, bennett.sigma, slutsky.t, slutsky.sigma);
  }
  qkd::bench::row("(Slutsky saturates at t = b when QBER reaches 1/3: past "
                  "the defense frontier Eve may know everything)");

  qkd::bench::row("");
  qkd::bench::row("resultant entropy at the paper's operating point");
  qkd::bench::row("(b=1500 sifted, n=1,048,576 pulses, mu=0.1, d=650, c=5):");
  qkd::bench::row("%7s %18s %18s", "QBER%", "H_bennett (bits)",
                  "H_slutsky (bits)");
  for (double q : {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08}) {
    EntropyInputs in;
    in.sifted_bits = 1500;
    in.error_bits = static_cast<std::size_t>(q * 1500);
    in.transmitted_pulses = 1 << 20;
    in.disclosed_bits = 650;
    in.mean_photon_number = 0.1;
    in.confidence = 5.0;
    in.defense = DefenseFunction::kBennett;
    const double h_bennett = estimate_entropy(in).distillable_bits;
    in.defense = DefenseFunction::kSlutsky;
    const double h_slutsky = estimate_entropy(in).distillable_bits;
    qkd::bench::row("%7.1f %18.0f %18.0f", 100.0 * q, h_bennett, h_slutsky);
  }
  qkd::bench::row("(the Slutsky column hits zero first: \"overly conservative"
                  " for finite-length blocks\", so the running system keyed "
                  "on Bennett)");

  qkd::bench::row("");
  qkd::bench::row("confidence parameter c (margin = c standard deviations):");
  qkd::bench::row("%6s %18s", "c", "H_bennett (bits)");
  for (double c : {0.0, 1.0, 3.0, 5.0, 10.0}) {
    EntropyInputs in;
    in.sifted_bits = 1500;
    in.error_bits = 90;
    in.transmitted_pulses = 1 << 20;
    in.disclosed_bits = 650;
    in.confidence = c;
    in.defense = DefenseFunction::kBennett;
    qkd::bench::row("%6.0f %18.0f", c, estimate_entropy(in).distillable_bits);
  }
  qkd::bench::row("(c = 5 means ~1e-6 chance of successful eavesdropping, "
                  "per the paper)");
}

void bm_entropy_estimate(benchmark::State& state) {
  EntropyInputs in;
  in.sifted_bits = 1500;
  in.error_bits = 90;
  in.transmitted_pulses = 1 << 20;
  in.disclosed_bits = 650;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_entropy(in));
  }
}
BENCHMARK(bm_entropy_estimate);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
