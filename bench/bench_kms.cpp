// E19: the multi-tenant key management service.
//
// The ROADMAP's "millions of users" step: one KeyManagementService serving
// a thousand-client fleet over the relay mesh, entirely on scheduled
// deadlines. The headline table runs >= 1M get_key requests from >= 1k
// clients (three QoS classes, weighted fair share, same-destination
// batching) through one scheduled run and reports per-class grant counts,
// p99 grant latency, grants per wall second and the batching factor —
// the computational-load/rate coupling Gilbert & Hamrick analyze, measured
// on the living stack.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/common/worker_pool.hpp"
#include "src/keystore/key_pool.hpp"
#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/scenario.hpp"
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

/// One relay between two endpoints, with deliberately hot optics (short
/// fiber, multi-GHz trigger) so the link supplies — not the service — are
/// out of the way: E19 measures scheduling and delivery, not photons.
Topology hot_star() {
  Topology topo;
  topo.add_node("relay", NodeKind::kTrustedRelay);
  topo.add_node("a", NodeKind::kEndpoint);
  topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 5e9;
  topo.add_link(0, 1, optics);
  topo.add_link(0, 2, optics);
  return topo;
}

struct ClassLoad {
  QosClass qos;
  std::size_t clients;
  double rate_hz;
  std::size_t bits;
};

struct RunResult {
  std::uint64_t requests = 0;
  std::uint64_t clients = 0;
  KeyManagementService::Stats service;
  std::array<KeyManagementService::ClassStats, kQosClassCount> classes;
  std::array<double, kQosClassCount> p99_s{};
  std::array<double, kQosClassCount> mean_s{};
  double wall_s = 0.0;
  double sim_s = 0.0;
};

/// One scheduled run: the whole fleet arrives at t=1s and requests until
/// the horizon; the scenario engine owns the timeline end to end.
RunResult run_fleet(const std::vector<ClassLoad>& loads, double sim_seconds) {
  MeshSimulation mesh(hot_star(), 19);

  Scenario script;
  for (const ClassLoad& load : loads) {
    script.at(kSecond,
              ClientArrival{1, 2, static_cast<unsigned>(load.qos),
                            load.clients, load.rate_hz, load.bits});
  }
  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);

  KeyManagementService kms(mesh, runner.scheduler());
  KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);

  const auto start = std::chrono::steady_clock::now();
  runner.run(seconds_to_sim(sim_seconds));
  RunResult result;
  result.wall_s = seconds_since(start);
  result.sim_s = runner.clock().seconds();
  result.requests = fleet.stats().requests_issued;
  result.clients = fleet.active_clients();
  result.service = kms.stats();
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    result.classes[qos] = kms.class_stats(static_cast<QosClass>(qos));
    result.p99_s[qos] = kms.p99_grant_latency_s(static_cast<QosClass>(qos));
    result.mean_s[qos] = kms.mean_grant_latency_s(static_cast<QosClass>(qos));
  }
  return result;
}

/// A relay hub with `pairs` disjoint endpoint pairs fanned around it —
/// the sharded sweep's topology. Disjoint pairs spread across shards, so
/// the grant path parallelizes with no cross-shard traffic at all.
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

struct SweepResult {
  std::uint64_t grants = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;
  /// Per-shard, per-class granted counts, for the DRR fairness columns.
  std::vector<std::array<std::uint64_t, kQosClassCount>> per_shard;
};

/// One sharded run: `pairs` disjoint pairs, three QoS clients per pair
/// each requesting at 100 Hz, shards executing on min(shards, cores)
/// worker lanes. The per-client grant sequences are identical for every
/// shard count (that is the tier-1 contract); only the wall clock moves.
SweepResult run_sharded_fleet(std::size_t shards, std::size_t pairs,
                              double sim_seconds) {
  MeshSimulation mesh(hot_fan(pairs), 19);
  mesh.step(30.0);

  SimClock clock;
  EventScheduler scheduler(clock);
  auto pool = std::make_shared<qkd::common::WorkerPool>(
      std::min(shards, qkd::common::WorkerPool::default_lanes()));
  ShardedScheduler sharded(scheduler, shards, pool);
  KeyManagementService kms(mesh, sharded);

  // One counter slot per client: each client's grants arrive serially on
  // its own shard's lane, so distinct slots need no synchronization.
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
  SweepResult result;
  result.wall_s = seconds_since(start);
  result.sim_s = clock.seconds();
  for (std::uint64_t count : granted) result.grants += count;
  result.per_shard.resize(shards);
  for (std::size_t s = 0; s < shards; ++s)
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
      result.per_shard[s][qos] =
          kms.shard_class_stats(s, static_cast<QosClass>(qos)).granted;
  return result;
}

const std::vector<ClassLoad>& headline_loads() {
  // 1000 clients, 10 req/s each, ~101 s: >= 1M requests in one run.
  static const std::vector<ClassLoad> loads = {
      {QosClass::kRealtime, 200, 10.0, 64},
      {QosClass::kInteractive, 300, 10.0, 96},
      {QosClass::kBulk, 500, 10.0, 128},
  };
  return loads;
}

void print_tables() {
  qkd::bench::heading("E19", "multi-tenant key management service");

  const RunResult run = run_fleet(headline_loads(), 102.0);
  std::uint64_t granted = 0;
  for (const auto& cls : run.classes) granted += cls.granted;

  qkd::bench::row("one scheduled run: %llu clients, %llu requests, %.0f "
                  "simulated seconds",
                  static_cast<unsigned long long>(run.clients),
                  static_cast<unsigned long long>(run.requests), run.sim_s);
  qkd::bench::row("");
  qkd::bench::row("%-12s %8s %10s %10s %10s %6s %9s %9s", "class", "clients",
                  "requests", "granted", "rejected", "shed", "p99 ms",
                  "mean ms");
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const auto& cls = run.classes[qos];
    qkd::bench::row("%-12s %8zu %10llu %10llu %10llu %6llu %9.2f %9.2f",
                    qos_class_name(static_cast<QosClass>(qos)),
                    headline_loads()[qos].clients,
                    static_cast<unsigned long long>(cls.requests),
                    static_cast<unsigned long long>(cls.granted),
                    static_cast<unsigned long long>(cls.rejected_queue_full),
                    static_cast<unsigned long long>(cls.shed),
                    1e3 * run.p99_s[qos], 1e3 * run.mean_s[qos]);
  }
  qkd::bench::row("");
  qkd::bench::row("  grants:          %llu  (%.0f grants/s wall)",
                  static_cast<unsigned long long>(granted),
                  static_cast<double>(granted) / run.wall_s);
  qkd::bench::row("  relay frames:    %llu  (%.1f grants/frame batching)",
                  static_cast<unsigned long long>(run.service.transports),
                  static_cast<double>(granted) /
                      static_cast<double>(run.service.transports));
  qkd::bench::row("  service rounds:  %llu  (starved %llu, sheds %llu)",
                  static_cast<unsigned long long>(run.service.service_rounds),
                  static_cast<unsigned long long>(run.service.starved_rounds),
                  static_cast<unsigned long long>(run.service.shed_events));
  qkd::bench::row("  wall: %.2f s, sim-s/wall-s: %.0f", run.wall_s,
                  run.sim_s / run.wall_s);

  // ---- The sharded sweep: grants/s against shard count ---------------------
  qkd::bench::row("");
  qkd::bench::row("sharded grant path: 32 disjoint pairs, 96 clients, "
                  "%zu worker lanes available",
                  qkd::common::WorkerPool::default_lanes());
  qkd::bench::row("%7s %10s %10s %9s %8s  %s", "shards", "grants",
                  "grants/s", "wall s", "speedup", "per-shard DRR min/max");
  double base_wall = 0.0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    const SweepResult sweep = run_sharded_fleet(shards, 32, 5.0);
    if (shards == 1) base_wall = sweep.wall_s;
    // DRR fairness across OCCUPIED shards: min and max granted per class.
    std::array<std::uint64_t, kQosClassCount> lo{}, hi{};
    lo.fill(~std::uint64_t{0});
    for (const auto& per_class : sweep.per_shard) {
      std::uint64_t total = 0;
      for (std::uint64_t g : per_class) total += g;
      if (total == 0) continue;  // the hash left this shard empty
      for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
        lo[qos] = std::min(lo[qos], per_class[qos]);
        hi[qos] = std::max(hi[qos], per_class[qos]);
      }
    }
    qkd::bench::row(
        "%7zu %10llu %10.0f %9.2f %7.2fx  rt %llu/%llu ia %llu/%llu "
        "bulk %llu/%llu",
        shards, static_cast<unsigned long long>(sweep.grants),
        static_cast<double>(sweep.grants) / sweep.wall_s, sweep.wall_s,
        base_wall / sweep.wall_s, static_cast<unsigned long long>(lo[0]),
        static_cast<unsigned long long>(hi[0]),
        static_cast<unsigned long long>(lo[1]),
        static_cast<unsigned long long>(hi[1]),
        static_cast<unsigned long long>(lo[2]),
        static_cast<unsigned long long>(hi[2]));
  }
}

void bm_kms_fleet_run(benchmark::State& state) {
  // A scaled-down fleet day per iteration: `range(0)` clients per class,
  // 10 simulated seconds.
  const auto per_class = static_cast<std::size_t>(state.range(0));
  const std::vector<ClassLoad> loads = {
      {QosClass::kRealtime, per_class, 10.0, 64},
      {QosClass::kInteractive, per_class, 10.0, 96},
      {QosClass::kBulk, per_class, 10.0, 128},
  };
  std::uint64_t requests = 0;
  for (auto _ : state) {
    const RunResult run = run_fleet(loads, 10.0);
    requests += run.requests;
    benchmark::DoNotOptimize(run.requests);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(bm_kms_fleet_run)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void bm_kms_sharded_sweep(benchmark::State& state) {
  // The scaling sweep behind the E19 table: one sharded fleet run at
  // `range(0)` shards. Items processed = keys granted, so items/s is
  // grants per wall second — compare across Args for the scaling curve
  // (tools/compare_bench.py --series bm_kms_sharded_sweep).
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::uint64_t grants = 0;
  for (auto _ : state) {
    const SweepResult sweep = run_sharded_fleet(shards, 32, 5.0);
    grants += sweep.grants;
    benchmark::DoNotOptimize(sweep.grants);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(grants));
  // More shards than CPUs time the scheduler, not the shards:
  // compare_bench.py --series marks such a row unmeasured.
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(bm_kms_sharded_sweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void bm_kms_admission_rejection(benchmark::State& state) {
  // The backpressure fast path: get_key on a full queue must be cheap —
  // it is what protects the service when demand outruns supply.
  MeshSimulation mesh(hot_star(), 7);
  SimClock clock;
  EventScheduler scheduler(clock);
  KeyManagementService::Config config;
  config.max_queue_per_class = 8;
  KeyManagementService kms(mesh, scheduler, config);
  const ClientId client =
      kms.register_client({"bursty", 1, 2, QosClass::kBulk});
  for (std::size_t i = 0; i < config.max_queue_per_class; ++i)
    kms.get_key(client, 64, [](const Grant&) {});
  for (auto _ : state) {
    kms.get_key(client, 64, [](const Grant&) {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_kms_admission_rejection);

void bm_key_pool_deposit(benchmark::State& state) {
  // The deposit under every grant: frame keys have arbitrary lengths, so a
  // pool's size is almost never a multiple of 64 and each append lands at
  // a bit offset. Blocks of 61-190 bits go into a pool three bits off a
  // word boundary and are withdrawn linearly behind it, so compaction
  // runs too. Items processed = bits deposited, so items/s is bits/s.
  qkd::Rng rng(19);
  std::vector<qkd::BitVector> blocks;
  for (std::size_t i = 0; i < 64; ++i)
    blocks.push_back(rng.next_bits(61 + (37 * i) % 130));
  qkd::keystore::KeyPool pool("bench");
  pool.deposit(rng.next_bits(3));
  std::uint64_t bits = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const qkd::BitVector& block = blocks[next++ % blocks.size()];
    pool.deposit(block);
    benchmark::DoNotOptimize(pool.request_bits(block.size()));
    bits += block.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(bits));
}
BENCHMARK(bm_key_pool_deposit);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
