// E2 (Sec. 4 operating point): "our weak-coherent link is operating with a
// 1 MHz pulse repetition rate, mean photon-emission number of 0.1 photons
// per pulse, and approximately a 6-8% Quantum Bit Error Rate (QBER)".
//
// Regenerates the operating-point QBER and its decomposition, then sweeps
// the two dials the physicists tuned: mean photon number (brightness vs.
// PNS exposure) and detector dark counts (cooling).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.hpp"
#include "src/optics/link.hpp"
#include "src/optics/link_model.hpp"

namespace {

using namespace qkd::optics;

struct MeasuredQber {
  double qber;
  double sift_per_pulse;
  std::size_t dark_clicks;
  std::size_t signal_clicks;
};

MeasuredQber measure(const LinkParams& params, std::uint64_t seed,
                     std::size_t slots = 2000000) {
  WeakCoherentLink link(params, seed);
  std::size_t sifted = 0, errors = 0;
  const FrameResult frame = link.run_frame(slots);
  for (const Click& click : frame.clicks) {
    if (click.alice_basis != click.bob_basis) continue;
    ++sifted;
    errors += click.alice_value != click.bob_bit;
  }
  MeasuredQber out;
  out.qber = sifted ? static_cast<double>(errors) / sifted : 0.0;
  out.sift_per_pulse = static_cast<double>(sifted) / slots;
  out.dark_clicks = link.stats().dark_only_clicks;
  out.signal_clicks = link.stats().signal_clicks;
  return out;
}

void print_table() {
  qkd::bench::heading(
      "E2", "Sec. 4: QBER at the paper's operating point and nearby");

  {
    const LinkParams params;  // defaults = the paper's link
    const LinkModel model(params);
    const MeasuredQber mc = measure(params, 42);
    qkd::bench::row("operating point: mu=%.2f, %.0f km, -30C APDs",
                    params.mean_photon_number, params.fiber_km);
    qkd::bench::row("  QBER: paper 6-8%%   analytic %.2f%%   Monte-Carlo %.2f%%",
                    100.0 * model.expected_qber(), 100.0 * mc.qber);
    qkd::bench::row("  dark/signal click ratio: %zu / %zu", mc.dark_clicks,
                    mc.signal_clicks);
  }

  qkd::bench::row("");
  qkd::bench::row("mean-photon-number sweep (10 km):");
  qkd::bench::row("%8s %12s %12s %16s %16s", "mu", "QBER MC%", "QBER law%",
                  "sifted/pulse", "P[multi-photon]");
  for (double mu : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    LinkParams params;
    params.mean_photon_number = mu;
    const LinkModel model(params);
    const MeasuredQber mc = measure(params, 7, 1000000);
    const double p_multi = 1.0 - std::exp(-mu) * (1.0 + mu);
    qkd::bench::row("%8.2f %12.2f %12.2f %16.5f %16.5f", mu, 100.0 * mc.qber,
                    100.0 * model.expected_qber(), mc.sift_per_pulse,
                    p_multi);
  }

  qkd::bench::row("");
  qkd::bench::row("dark-count sweep (detector cooling; 10 km):");
  qkd::bench::row("%14s %12s %12s", "p_dark/gate", "QBER MC%", "QBER law%");
  for (double dark : {1e-6, 1e-5, 1e-4, 1e-3}) {
    LinkParams params;
    params.dark_count_prob = dark;
    const LinkModel model(params);
    const MeasuredQber mc = measure(params, 11, 1000000);
    qkd::bench::row("%14.0e %12.2f %12.2f", dark, 100.0 * mc.qber,
                    100.0 * model.expected_qber());
  }
}

void bm_qber_measurement(benchmark::State& state) {
  const LinkParams params;
  std::uint64_t seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure(params, seed++, 1 << 16));
  }
}
BENCHMARK(bm_qber_measurement);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
