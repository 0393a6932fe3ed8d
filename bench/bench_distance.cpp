// E4 (Sec. 1): "The best current systems can support distances up to about
// 70 km through fiber, though at very low bit-rates."
//
// Sweeps fiber length: sifted and distilled rates decay exponentially with
// loss until dark counts dominate the QBER and the key rate collapses. The
// crossover (QBER = 11%) must land near 70 km with the default calibration.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/network/key_transport.hpp"
#include "src/optics/link_model.hpp"

namespace {

using namespace qkd::optics;

void print_table() {
  qkd::bench::heading("E4",
                      "Sec. 1: key rate vs. fiber distance (collapse ~70 km)");
  qkd::bench::row("%8s %10s %14s %16s %12s", "km", "QBER%", "sifted b/s",
                  "distilled b/s", "status");
  for (double km : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 65.0, 70.0,
                    75.0, 80.0, 90.0}) {
    LinkParams params;
    params.fiber_km = km;
    const LinkModel model(params);
    const double qber = model.expected_qber();
    const double fraction =
        qkd::network::estimated_distill_fraction(model);
    qkd::bench::row("%8.0f %10.2f %14.1f %16.2f %12s", km, 100.0 * qber,
                    model.sifted_rate_bps(),
                    model.sifted_rate_bps() * fraction,
                    qber < 0.11 ? "up" : "QBER alarm");
  }
  LinkParams params;
  const LinkModel model(params);
  qkd::bench::row("");
  qkd::bench::row("maximum range at the default calibration: %.1f km "
                  "(paper: \"up to about 70 km\")",
                  model.max_range_km());
}

void bm_max_range_solver(benchmark::State& state) {
  const LinkParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinkModel(params).max_range_km());
  }
}
BENCHMARK(bm_max_range_solver);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
