// E18: the discrete-event scenario engine.
//
// Every future scale experiment (async multi-link meshes,
// millions-of-tunnels workloads) schedules onto the src/sim EventScheduler,
// so this experiment pins down the substrate's cost:
//
//  * Scheduler throughput — one-shot dispatch rate as the pending-event
//    population grows (heap depth), periodic-timer dispatch rate, and the
//    schedule+cancel round-trip rate (lazy-cancellation bookkeeping).
//  * End-to-end scenario cost — a scripted eavesdrop/cut/reroute/restore
//    network hour on an analytic-rate relay ring: events dispatched, wall
//    time, and the simulated-seconds-per-wall-second speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/sim/scenario.hpp"

namespace {

using namespace qkd;
using namespace qkd::sim;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One-shot events/second: `population` events stay pending (each dispatch
/// schedules a replacement) while `fires` dispatches run.
double oneshot_events_per_s(std::size_t population, std::size_t fires) {
  SimClock clock;
  EventScheduler sched(clock);
  std::uint64_t fired = 0;
  std::function<void(SimTime)> refill = [&](SimTime t) {
    ++fired;
    sched.at(t + population * kMicrosecond, refill);
  };
  for (std::size_t i = 0; i < population; ++i)
    sched.at((i + 1) * kMicrosecond, refill);
  const auto start = std::chrono::steady_clock::now();
  while (fired < fires) sched.run_one();
  return static_cast<double>(fired) / seconds_since(start);
}

/// Periodic-timer dispatches/second with `timers` concurrent timers.
double periodic_events_per_s(std::size_t timers, std::size_t fires) {
  SimClock clock;
  EventScheduler sched(clock);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < timers; ++i)
    sched.every((i + 1) * kMicrosecond, kMillisecond,
                [&fired](SimTime) { ++fired; });
  const auto start = std::chrono::steady_clock::now();
  while (fired < fires) sched.run_one();
  return static_cast<double>(fired) / seconds_since(start);
}

/// schedule+cancel round trips/second against `population` live events.
double cancel_round_trips_per_s(std::size_t population, std::size_t trips) {
  SimClock clock;
  EventScheduler sched(clock);
  for (std::size_t i = 0; i < population; ++i)
    sched.at((i + 1) * kSecond, [](SimTime) {});
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < trips; ++i) {
    const auto handle = sched.at(kSecond, [](SimTime) {});
    sched.cancel(handle);
  }
  return static_cast<double>(trips) / seconds_since(start);
}

struct ScenarioCost {
  std::size_t dispatched = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;
};

/// The scenario_day shape: an hour of relay-ring operations with scripted
/// damage, repairs and five-minute key requests.
ScenarioCost scripted_hour(SimTime sample_interval) {
  network::MeshSimulation mesh(network::Topology::relay_ring(6), 18);
  Scenario script;
  for (SimTime t = 5 * kMinute; t < kHour; t += 5 * kMinute)
    script.at(t, KeyRequest{6, 7, 256});
  script.at(10 * kMinute, StartEavesdrop{1, 1.0});
  script.at(30 * kMinute, CutLink{4});
  script.at(38 * kMinute, StopEavesdrop{1});
  script.at(45 * kMinute, RestoreLink{4});
  ScenarioRunner::Config config;
  config.sample_interval = sample_interval;
  ScenarioRunner runner(std::move(script), config);
  runner.attach_mesh(mesh);
  const auto start = std::chrono::steady_clock::now();
  ScenarioCost cost;
  cost.dispatched = runner.run(kHour);
  cost.wall_s = seconds_since(start);
  cost.sim_s = runner.clock().seconds();
  return cost;
}

void print_tables() {
  qkd::bench::heading("E18", "discrete-event scenario engine");

  qkd::bench::row("%-42s %12s", "scheduler kernel", "events/s");
  for (const std::size_t population : {16u, 1024u, 65536u}) {
    char label[64];
    std::snprintf(label, sizeof(label), "  one-shot dispatch, %zu pending",
                  population);
    qkd::bench::row("%-42s %12.0f", label,
                    oneshot_events_per_s(population, 400000));
  }
  qkd::bench::row("%-42s %12.0f", "  periodic timers, 1024 concurrent",
                  periodic_events_per_s(1024, 400000));
  qkd::bench::row("%-42s %12.0f", "  schedule+cancel round trip",
                  cancel_round_trips_per_s(65536, 400000));

  qkd::bench::row("");
  qkd::bench::row("%-24s %10s %12s %14s", "scripted network hour", "events",
                  "wall ms", "sim-s/wall-s");
  for (const SimTime sample : {kMinute, kSecond}) {
    const ScenarioCost cost = scripted_hour(sample);
    qkd::bench::row("  sampling every %3llds %10zu %12.1f %14.0f",
                    static_cast<long long>(sample / kSecond), cost.dispatched,
                    1e3 * cost.wall_s, cost.sim_s / cost.wall_s);
  }
}

void bm_scheduler_oneshot(benchmark::State& state) {
  SimClock clock;
  EventScheduler sched(clock);
  const auto population = static_cast<std::size_t>(state.range(0));
  std::function<void(SimTime)> refill = [&](SimTime t) {
    sched.at(t + population * kMicrosecond, refill);
  };
  for (std::size_t i = 0; i < population; ++i)
    sched.at((i + 1) * kMicrosecond, refill);
  for (auto _ : state) sched.run_one();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_scheduler_oneshot)->Arg(16)->Arg(1024)->Arg(65536);

void bm_scripted_hour(benchmark::State& state) {
  for (auto _ : state) {
    const ScenarioCost cost = scripted_hour(kMinute);
    benchmark::DoNotOptimize(cost.dispatched);
  }
}
BENCHMARK(bm_scripted_hour)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
