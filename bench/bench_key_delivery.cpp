// E17: the unified key-delivery layer under load.
//
// The paper frames key delivery as a race between supply and consumption
// ("Sufficiently Rapid Key Delivery", Sec. 2); this experiment measures the
// consumption side of the new KeySupply seam. Two tables:
//
//  * Supply request latency and throughput vs. pool depth — Qblock/lane
//    requests (the IKE path), reserve/release round trips (the OTP offer
//    path), and linear FIFO requests (the relay-transport path), each at
//    several reservoir depths so compaction and lane bookkeeping costs are
//    visible.
//  * Producer delivery — a single-link QkdLinkSession and a relay-ring
//    LinkKeyService (one engine per link, parallel distillation) filling
//    their supplies, then consumers draining them through the same
//    interface the VPN and mesh layers use.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/keystore/key_pool.hpp"
#include "src/network/key_service.hpp"
#include "src/qkd/engine.hpp"

namespace {

using qkd::keystore::KeyPool;
using qkd::keystore::KeySupply;

constexpr std::size_t kQ = KeySupply::kQblockBits;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Nanoseconds per request_qblocks(1) at a sustained pool depth (each
/// withdrawal is immediately re-deposited so the depth stays put).
double qblock_request_ns(std::size_t depth_bits, std::size_t iterations) {
  qkd::Rng rng(1);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(depth_bits));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    auto block = pool.request_qblocks(1, i & 1u);
    benchmark::DoNotOptimize(block);
    pool.deposit(block->bits);  // hold depth constant
  }
  return 1e9 * seconds_since(start) / static_cast<double>(iterations);
}

/// Nanoseconds per reserve+release round trip (the abandoned-offer path).
double reserve_release_ns(std::size_t depth_bits, std::size_t iterations) {
  qkd::Rng rng(2);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(depth_bits));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    auto block = pool.reserve_qblocks(3, 0);
    benchmark::DoNotOptimize(block);
    pool.release(block->key_id);
  }
  return 1e9 * seconds_since(start) / static_cast<double>(iterations);
}

/// Linear-framing throughput in bits/s (the relay-transport path).
double linear_drain_bps(std::size_t depth_bits, std::size_t chunk_bits) {
  qkd::Rng rng(3);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(depth_bits));
  std::size_t drained = 0;
  const auto start = std::chrono::steady_clock::now();
  while (pool.available_bits() >= chunk_bits) {
    auto block = pool.request_bits(chunk_bits);
    benchmark::DoNotOptimize(block);
    drained += chunk_bits;
  }
  return static_cast<double>(drained) / seconds_since(start);
}

void print_request_table() {
  qkd::bench::heading("E17a",
                      "KeySupply request cost vs. reservoir depth");
  qkd::bench::row("%12s %16s %18s %16s", "pool depth", "Qblock req (ns)",
                  "reserve+rel (ns)", "linear (Mbit/s)");
  for (std::size_t depth_blocks : {16u, 256u, 4096u}) {
    const std::size_t depth = depth_blocks * kQ;
    qkd::bench::row("%9zu Qb %16.0f %18.0f %16.1f", depth_blocks,
                    qblock_request_ns(depth, 20000),
                    reserve_release_ns(depth, 20000),
                    linear_drain_bps(depth, 256) / 1e6);
  }
  qkd::bench::row("(request = reserve + acknowledge in one step; the laned "
                  "paths stay O(1) with depth — compaction amortizes — so "
                  "IKE rekey cost does not grow with the reservoir)");
}

void print_producer_table() {
  qkd::bench::heading("E17b",
                      "producer delivery: engine -> KeySupply -> consumer");
  qkd::proto::QkdLinkConfig proto;
  proto.frame_slots = 1 << 19;
  proto.auth_replenish_bits = 64;

  // Single link: one QkdLinkSession producing into its own supply.
  {
    qkd::proto::QkdLinkSession session(proto, 17);
    const auto start = std::chrono::steady_clock::now();
    session.produce_batches(4);
    const double wall = seconds_since(start);
    const std::size_t bits = session.supply(0).available_bits();
    qkd::bench::row("%-26s %8zu bits in %6.2f s host (%7.0f bit/s host)",
                    "single-link producer:", bits, wall,
                    static_cast<double>(bits) / wall);
  }

  // Mesh: one engine per relay-ring link, parallel distillation, then a
  // consumer draining every supply through request_bits.
  {
    const auto topo = qkd::network::Topology::relay_ring(4);
    qkd::network::LinkKeyService::Config config;
    config.proto = proto;
    config.seed = 17;
    qkd::network::LinkKeyService service(topo, config);
    const auto start = std::chrono::steady_clock::now();
    service.run_batches(4);
    const double wall = seconds_since(start);
    std::size_t total = 0;
    for (std::size_t id = 0; id < service.supply_count(); ++id)
      total += service.supply(id).available_bits();
    qkd::bench::row("%-26s %8zu bits in %6.2f s host across %zu links",
                    "relay-ring(4) producer:", total, wall,
                    service.link_count());
    std::size_t drained = 0;
    const auto drain_start = std::chrono::steady_clock::now();
    for (std::size_t id = 0; id < service.supply_count(); ++id) {
      while (auto block = service.supply(id).request_bits(64)) {
        benchmark::DoNotOptimize(block);
        drained += 64;
        if (service.supply(id).available_bits() < 64) break;
      }
    }
    qkd::bench::row("%-26s %8zu bits at %7.1f Mbit/s host",
                    "consumer drain (64 b asks):", drained,
                    static_cast<double>(drained) /
                        seconds_since(drain_start) / 1e6);
  }
  qkd::bench::row("(the same KeySupply verbs serve IKE Qblock rekeys, OTP "
                  "pad earmarks and relay-hop pads; producers mirror one "
                  "stream into any number of attached sinks)");
}

// ---- timing kernels --------------------------------------------------------

void bm_request_qblock(benchmark::State& state) {
  qkd::Rng rng(4);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(static_cast<std::size_t>(state.range(0)) * kQ));
  unsigned lane = 0;
  for (auto _ : state) {
    auto block = pool.request_qblocks(1, lane ^= 1u);
    benchmark::DoNotOptimize(block);
    pool.deposit(block->bits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_request_qblock)->Arg(16)->Arg(4096);

void bm_reserve_release(benchmark::State& state) {
  qkd::Rng rng(5);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(256 * kQ));
  for (auto _ : state) {
    auto block = pool.reserve_qblocks(3, 0);
    benchmark::DoNotOptimize(block);
    pool.release(block->key_id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_reserve_release);

void bm_request_bits(benchmark::State& state) {
  qkd::Rng rng(6);
  KeyPool pool("bench");
  pool.deposit(rng.next_bits(1 << 22));
  for (auto _ : state) {
    auto block = pool.request_bits(256);
    benchmark::DoNotOptimize(block);
    if (pool.available_bits() < 256) {
      state.PauseTiming();
      pool = KeyPool("bench");
      pool.deposit(rng.next_bits(1 << 22));
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(state.iterations() * 32);
}
BENCHMARK(bm_request_bits);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_request_table();
  print_producer_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
