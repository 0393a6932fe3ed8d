// E1 (Figs. 4-7): interferometric signalling.
//
// Reproduces the click-probability law of Fig. 7 — constructive /
// destructive interference for compatible bases, 50/50 for incompatible —
// by comparing the analytic law against Monte-Carlo click fractions for all
// eight (Alice phase, Bob basis) settings, plus a visibility sweep showing
// the (1-V)/2 error floor.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/optics/interference.hpp"
#include "src/optics/link.hpp"

namespace {

using namespace qkd::optics;

void print_table() {
  qkd::bench::heading("E1", "Fig. 7: click probabilities vs. phase setting");

  // Monte-Carlo at high efficiency so every slot yields statistics quickly.
  LinkParams params;
  params.mean_photon_number = 5.0;  // bright: isolate the interference law
  params.fiber_km = 0.0;
  params.insertion_loss_db = 0.0;
  params.detector_efficiency = 1.0;
  params.central_peak_fraction = 1.0;
  params.dark_count_prob = 0.0;
  params.interferometer_visibility = 1.0;

  qkd::bench::row("%8s %8s %10s %12s %12s  %s", "aliceQ", "bobQ", "delta",
                  "P(D1) law", "P(D1) MC", "interpretation");
  WeakCoherentLink link(params, 99);
  const FrameResult frame = link.run_frame(400000);
  for (unsigned alice_q = 0; alice_q < 4; ++alice_q) {
    for (unsigned bob_q = 0; bob_q < 2; ++bob_q) {
      const double law = p_route_to_d1(alice_q, bob_q, 1.0);
      // Harvest MC fraction for the matching modulator settings.
      std::size_t d1 = 0, total = 0;
      for (const Click& click : frame.clicks) {
        if (alice_phase_quarter(click.alice_basis, click.alice_value) !=
                alice_q ||
            bob_phase_quarter(click.bob_basis) != bob_q)
          continue;
        ++total;
        d1 += click.bob_bit;
      }
      const double mc = total ? static_cast<double>(d1) / total : 0.0;
      const unsigned delta = (alice_q + 4 - bob_q) % 4;
      const char* meaning =
          delta == 0 ? "constructive at D0 (bit 0)"
          : delta == 2 ? "constructive at D1 (bit 1)"
                       : "incompatible bases: random APD";
      qkd::bench::row("%8u %8u %7u*pi/2 %12.3f %12.3f  %s", alice_q, bob_q,
                      delta, law, mc, meaning);
    }
  }

  qkd::bench::row("");
  qkd::bench::row("visibility sweep (compatible bases): error floor = (1-V)/2");
  qkd::bench::row("(single-photon regime, mu = 0.1: with bright pulses the"
                  " double-click discard would mask the errors)");
  qkd::bench::row("%12s %14s %14s", "visibility", "wrong-APD law",
                  "QBER floor MC");
  for (double v : {1.0, 0.98, 0.95, 0.90, 0.885, 0.80}) {
    LinkParams vis = params;
    vis.mean_photon_number = 0.1;
    vis.interferometer_visibility = v;
    WeakCoherentLink vlink(vis, 7);
    const FrameResult vframe = vlink.run_frame(1000000);
    std::size_t errors = 0, sifted = 0;
    for (const Click& click : vframe.clicks) {
      if (click.alice_basis != click.bob_basis) continue;
      ++sifted;
      errors += click.alice_value != click.bob_bit;
    }
    qkd::bench::row("%12.3f %14.4f %14.4f", v, (1.0 - v) / 2.0,
                    sifted ? static_cast<double>(errors) / sifted : 0.0);
  }
}

void bm_frame_simulation(benchmark::State& state) {
  LinkParams params;  // paper operating point
  WeakCoherentLink link(params, 1);
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.run_frame(slots));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots) *
                          state.iterations());
}
BENCHMARK(bm_frame_simulation)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
