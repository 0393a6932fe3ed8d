// E21: the observability layer's own cost.
// E22: the health engine's cost on top of it.
//
// The instrumentation lives permanently inside the grant and pipeline hot
// paths, which is only tenable if its quiescent cost is noise. The E21
// headline table runs the same sharded KMS fleet day three ways — no
// tracer attached, tracer attached but disabled, tracer enabled and
// recording — and reports the wall-clock overhead of each against the
// uninstrumented run (the disabled column is the one E21 pins: < 2%).
// E22 layers the AlertEngine over the same fleet: metrics bound but no
// engine vs the built-in rule pack evaluating at the one-second
// attach_alerts default, and pins the enabled-engine overhead < 2% as
// well — alerting must be cheap enough to leave on. The microbenchmarks price the primitives:
// sharded counter/histogram writes, the disabled-span branch, a recorded
// span, the Chrome JSON export per span, and one engine evaluation swept
// by rule count (the --series row).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/worker_pool.hpp"
#include "src/kms/kms.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health/alert.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace {

using namespace qkd;
using namespace qkd::kms;
using namespace qkd::sim;
using network::MeshSimulation;
using network::NodeId;
using network::NodeKind;
using network::Topology;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Relay hub with `pairs` disjoint endpoint pairs (same hot optics as
/// E19: the measurement is scheduling cost, not photons).
Topology hot_fan(std::size_t pairs) {
  Topology topo;
  topo.add_node("hub", NodeKind::kTrustedRelay);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 5e9;
  for (std::size_t p = 0; p < 2 * pairs; ++p) {
    const NodeId node =
        topo.add_node("e" + std::to_string(p), NodeKind::kEndpoint);
    topo.add_link(0, node, optics);
  }
  return topo;
}

enum class TraceMode { kAbsent, kDisabled, kEnabled };

struct TracedRun {
  std::uint64_t grants = 0;
  double wall_s = 0.0;
  std::size_t spans = 0;
  std::size_t export_bytes = 0;
  double export_s = 0.0;
};

/// One sharded fleet run (the E19 workload at reduced scale) with the
/// observability layer in the given mode. Identical scheduling in all
/// three modes — only the instrumentation differs.
TracedRun run_traced_fleet(TraceMode mode, std::size_t pairs,
                           double sim_seconds) {
  MeshSimulation mesh(hot_fan(pairs), 19);
  mesh.step(30.0);

  SimClock clock;
  EventScheduler scheduler(clock);
  auto pool = std::make_shared<qkd::common::WorkerPool>(1);
  ShardedScheduler sharded(scheduler, 1, pool);
  KeyManagementService kms(mesh, sharded);

  obs::Tracer tracer(kms.shard_count());
  if (mode != TraceMode::kAbsent) {
    tracer.set_sim_time_source([&clock] { return clock.now(); });
    tracer.set_enabled(mode == TraceMode::kEnabled);
    kms.set_tracer(&tracer);
    mesh.set_tracer(&tracer);
  }

  std::vector<std::uint64_t> granted(3 * pairs, 0);
  const std::size_t bits[kQosClassCount] = {64, 96, 128};
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto src = static_cast<NodeId>(1 + 2 * p);
    const auto dst = static_cast<NodeId>(2 + 2 * p);
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      const ClientId id = kms.register_client(
          {"c" + std::to_string(p) + "-" + std::to_string(qos), src, dst,
           static_cast<QosClass>(qos)});
      const std::size_t slot = 3 * p + qos;
      const std::size_t request_bits = bits[qos];
      kms.stream_for_pair(src, dst).every(
          (slot + 1) * (kMillisecond / 4), 10 * kMillisecond,
          [&kms, &granted, id, slot, request_bits](SimTime) {
            kms.get_key(id, request_bits,
                        [&granted, slot](const Grant& grant) {
                          if (grant.status == GrantStatus::kGranted)
                            ++granted[slot];
                        });
          });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  sharded.run_until(seconds_to_sim(sim_seconds));
  TracedRun result;
  result.wall_s = seconds_since(start);
  for (std::uint64_t count : granted) result.grants += count;
  if (mode == TraceMode::kEnabled) {
    result.spans = tracer.span_count();
    const auto export_start = std::chrono::steady_clock::now();
    result.export_bytes = obs::chrome_trace_json(tracer).size();
    result.export_s = seconds_since(export_start);
  }
  return result;
}

/// One sharded fleet run (same scale as E21) with metrics bound to a
/// registry and, when `engine_on`, the built-in rule pack evaluating once
/// per sim second on the scheduler (the attach_alerts default) — the
/// always-on alerting posture E22 prices. Both modes pay for the bound registry; the delta is the
/// engine itself (snapshot + condition evaluation + history upkeep).
struct AlertedRun {
  std::uint64_t grants = 0;
  double wall_s = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t conditions = 0;
};

AlertedRun run_alerted_fleet(bool engine_on, std::size_t pairs,
                             double sim_seconds) {
  MeshSimulation mesh(hot_fan(pairs), 22);
  mesh.step(30.0);

  SimClock clock;
  EventScheduler scheduler(clock);
  auto pool = std::make_shared<qkd::common::WorkerPool>(1);
  ShardedScheduler sharded(scheduler, 1, pool);
  KeyManagementService kms(mesh, sharded);

  obs::MetricsRegistry registry(kms.shard_count());
  mesh.bind_metrics(registry, "mesh");
  kms.bind_metrics(registry, "kms");
  obs::health::AlertEngine alerts(registry);
  if (engine_on) {
    namespace rules = obs::health::rules;
    alerts.add_rule(rules::qber_spike("mesh_link0_qber_percent", "0"));
    alerts.add_rule(rules::pool_drought("mesh_link0_pool_bits", "1->2"));
    alerts.add_rule(rules::grant_slo_burn("kms_interactive_granted_within_slo",
                                          "kms_interactive_granted",
                                          "interactive"));
    alerts.add_rule(rules::shed_surge("kms_bulk_shed", "bulk"));
    alerts.add_rule(rules::retransmission_storm("kms_realtime_requests"));
    alerts.add_rule(rules::distillation_stalled("kms_transports"));
    scheduler.every(kSecond, kSecond,
                    [&alerts](SimTime t) { alerts.evaluate(t); });
  }

  std::vector<std::uint64_t> granted(3 * pairs, 0);
  const std::size_t bits[kQosClassCount] = {64, 96, 128};
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto src = static_cast<NodeId>(1 + 2 * p);
    const auto dst = static_cast<NodeId>(2 + 2 * p);
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      const ClientId id = kms.register_client(
          {"c" + std::to_string(p) + "-" + std::to_string(qos), src, dst,
           static_cast<QosClass>(qos)});
      const std::size_t slot = 3 * p + qos;
      const std::size_t request_bits = bits[qos];
      kms.stream_for_pair(src, dst).every(
          (slot + 1) * (kMillisecond / 4), 10 * kMillisecond,
          [&kms, &granted, id, slot, request_bits](SimTime) {
            kms.get_key(id, request_bits,
                        [&granted, slot](const Grant& grant) {
                          if (grant.status == GrantStatus::kGranted)
                            ++granted[slot];
                        });
          });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  sharded.run_until(seconds_to_sim(sim_seconds));
  AlertedRun result;
  result.wall_s = seconds_since(start);
  for (std::uint64_t count : granted) result.grants += count;
  result.evaluations = alerts.stats().evaluations;
  result.conditions = alerts.stats().conditions_evaluated;
  return result;
}

void print_tables() {
  qkd::bench::heading("E21", "observability overhead on the grant path");

  // Interleaved repetitions, min wall per mode: the minimum is the run
  // least disturbed by the host, which is the honest basis for an
  // overhead-percent claim on a shared machine.
  constexpr int kReps = 7;
  constexpr std::size_t kPairs = 8;
  constexpr double kSimSeconds = 3.0;
  double wall[3] = {1e9, 1e9, 1e9};
  TracedRun enabled_run;
  std::uint64_t grants = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int mode = 0; mode < 3; ++mode) {
      const TracedRun run = run_traced_fleet(static_cast<TraceMode>(mode),
                                             kPairs, kSimSeconds);
      wall[mode] = std::min(wall[mode], run.wall_s);
      grants = run.grants;
      if (static_cast<TraceMode>(mode) == TraceMode::kEnabled)
        enabled_run = run;
    }
  }

  qkd::bench::row("sharded fleet: %zu pairs, %zu clients, %.0f simulated "
                  "seconds, %llu grants per run, best of %d",
                  kPairs, 3 * kPairs, kSimSeconds,
                  static_cast<unsigned long long>(grants), kReps);
  qkd::bench::row("");
  qkd::bench::row("%-22s %10s %10s", "tracer", "wall ms", "overhead");
  qkd::bench::row("%-22s %10.2f %10s", "absent (baseline)", 1e3 * wall[0],
                  "--");
  qkd::bench::row("%-22s %10.2f %+9.2f%%", "attached, disabled",
                  1e3 * wall[1], 100.0 * (wall[1] - wall[0]) / wall[0]);
  qkd::bench::row("%-22s %10.2f %+9.2f%%", "attached, enabled",
                  1e3 * wall[2], 100.0 * (wall[2] - wall[0]) / wall[0]);
  qkd::bench::row("");
  qkd::bench::row("  disabled budget: < 2%% (the E21 pin; see DESIGN.md)");
  qkd::bench::row("  enabled run recorded %zu spans; Chrome JSON export "
                  "%zu KiB in %.1f ms",
                  enabled_run.spans, enabled_run.export_bytes / 1024,
                  1e3 * enabled_run.export_s);

  qkd::bench::heading("E22", "health engine overhead on the same fleet");

  double alert_wall[2] = {1e9, 1e9};
  AlertedRun engine_run;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int on = 0; on < 2; ++on) {
      const AlertedRun run = run_alerted_fleet(on == 1, kPairs, kSimSeconds);
      alert_wall[on] = std::min(alert_wall[on], run.wall_s);
      if (on == 1) engine_run = run;
    }
  }

  qkd::bench::row("same fleet, registry bound in both modes; enabled adds "
                  "the six-rule pack at the 1 s attach_alerts default "
                  "interval");
  qkd::bench::row("");
  qkd::bench::row("%-22s %10s %10s", "alert engine", "wall ms", "overhead");
  qkd::bench::row("%-22s %10.2f %10s", "off (baseline)", 1e3 * alert_wall[0],
                  "--");
  qkd::bench::row("%-22s %10.2f %+9.2f%%", "on, 6 rules / 1s",
                  1e3 * alert_wall[1],
                  100.0 * (alert_wall[1] - alert_wall[0]) / alert_wall[0]);
  qkd::bench::row("");
  qkd::bench::row("  enabled budget: < 2%% (the E22 pin; see DESIGN.md)");
  qkd::bench::row("  enabled run: %llu evaluations, %llu conditions checked",
                  static_cast<unsigned long long>(engine_run.evaluations),
                  static_cast<unsigned long long>(engine_run.conditions));
}

// ---- Primitive costs -------------------------------------------------------

void bm_obs_counter_add(benchmark::State& state) {
  obs::MetricsRegistry registry(4);
  obs::Counter& counter = registry.counter("bench_hot");
  for (auto _ : state) {
    counter.add(1, 2);
    benchmark::DoNotOptimize(&counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_counter_add);

void bm_obs_histogram_record(benchmark::State& state) {
  obs::MetricsRegistry registry(4);
  obs::Histogram& histogram = registry.histogram("bench_latency");
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram.record(value, 1);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
    benchmark::DoNotOptimize(&histogram);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_histogram_record);

void bm_obs_span_null_tracer(benchmark::State& state) {
  // The cost paid by every instrumented layer that was never given a
  // tracer: one null check.
  for (auto _ : state) {
    obs::ScopedSpan span(nullptr, "kms.admit");
    benchmark::DoNotOptimize(span.recording());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_span_null_tracer);

void bm_obs_span_disabled_tracer(benchmark::State& state) {
  // Attached but off: one relaxed load. This is the branch the < 2%
  // budget rides on.
  obs::Tracer tracer(4);
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "kms.admit");
    benchmark::DoNotOptimize(span.recording());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_span_disabled_tracer);

void bm_obs_span_recorded(benchmark::State& state) {
  // A full recorded span with one attribute — the enabled-path unit cost.
  obs::Tracer tracer(4);
  tracer.set_enabled(true);
  std::size_t recorded = 0;
  for (auto _ : state) {
    {
      obs::ScopedSpan span(&tracer, "kms.admit", {}, 1);
      span.attr("qos", "realtime");
    }
    if (++recorded == 1 << 16) {  // bound the buffer, off the timed path
      state.PauseTiming();
      tracer.clear();
      recorded = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_span_recorded);

void bm_obs_chrome_export(benchmark::State& state) {
  // Export cost per span (items/s = spans serialized per second).
  obs::Tracer tracer(1);
  tracer.set_enabled(true);
  for (int i = 0; i < 4096; ++i) {
    obs::ScopedSpan span(&tracer, "kms.grant_round");
    span.attr("bits", "128");
  }
  const std::vector<obs::Span> spans = tracer.spans();
  for (auto _ : state) {
    const std::string json = obs::chrome_trace_json(spans);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(spans.size()));
}
BENCHMARK(bm_obs_chrome_export)->Unit(benchmark::kMillisecond);

void bm_obs_registry_snapshot(benchmark::State& state) {
  // The monitoring-thread read: range(0) instruments, sharded 4 ways.
  obs::MetricsRegistry registry(4);
  const auto instruments = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < instruments; ++i)
    registry.counter("c" + std::to_string(i)).add(i);
  for (auto _ : state) {
    const auto samples = registry.snapshot();
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instruments));
}
BENCHMARK(bm_obs_registry_snapshot)->Arg(64)->Unit(benchmark::kMicrosecond);

void bm_obs_alert_evaluate_sweep(benchmark::State& state) {
  // One engine evaluation as a function of rule count (items/s = rules
  // evaluated per second): half thresholds, half rate-of-change so the
  // sweep pays for history upkeep too. 64 instruments backing the rules,
  // matching the E21 snapshot benchmark's registry size.
  obs::MetricsRegistry registry(4);
  const auto rule_count = static_cast<std::size_t>(state.range(0));
  std::vector<obs::Gauge*> gauges;
  for (std::size_t i = 0; i < 64; ++i)
    gauges.push_back(&registry.gauge("g" + std::to_string(i)));
  obs::health::AlertEngine engine(registry);
  for (std::size_t i = 0; i < rule_count; ++i) {
    obs::health::AlertRule rule;
    rule.name = "r" + std::to_string(i);
    const std::string metric = "g" + std::to_string(i % 64);
    if (i % 2 == 0)
      rule.condition =
          obs::health::Threshold{metric, obs::health::Comparison::kGreater,
                                 1e9};
    else
      rule.condition = obs::health::RateOfChange{
          metric, 10 * kSecond, obs::health::Comparison::kGreater, 1e9};
    engine.add_rule(std::move(rule));
  }
  SimTime now = 0;
  std::int64_t tick = 0;
  for (auto _ : state) {
    gauges[static_cast<std::size_t>(tick) % 64]->set(tick);
    now += kSecond;
    engine.evaluate(now);
    ++tick;
    benchmark::DoNotOptimize(engine.last_evaluated());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rule_count));
}
BENCHMARK(bm_obs_alert_evaluate_sweep)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
