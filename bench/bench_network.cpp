// E12/E13 (Sec. 8): the meshed QKD network.
//
// E12 — resilience: "a meshed QKD network is inherently far more robust than
// any single point-to-point link since it offers multiple paths for key
// distribution." Injects fiber cuts and eavesdropping into meshes of varying
// redundancy and measures end-to-end key delivery.
//
// E13 — topology cost: "QKD networks can greatly reduce the cost of
// large-scale interconnectivity ... by reducing the required (N x N-1)/2
// point-to-point links to as few as N links in the case of a simple star."
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/network/key_transport.hpp"

namespace {

using namespace qkd::network;

/// Endpoints a and b joined through `relay_paths` disjoint two-hop relay
/// paths — redundancy dialed by construction.
Topology parallel_relays(std::size_t relay_paths) {
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 10.0;
  for (std::size_t i = 0; i < relay_paths; ++i) {
    const NodeId r =
        topo.add_node("r" + std::to_string(i), NodeKind::kTrustedRelay);
    topo.add_link(a, r, optics);
    topo.add_link(r, b, optics);
  }
  return topo;
}

void print_resilience_table() {
  qkd::bench::heading("E12", "Sec. 8: mesh resilience under failures");
  qkd::bench::row("transporting 20 x 128-bit keys while links fail at "
                  "random:");
  qkd::bench::row("%14s %14s %12s %12s", "relay paths", "links failed",
                  "delivered", "reroutes");
  qkd::Rng rng(13);
  for (std::size_t paths : {1u, 2u, 3u, 4u}) {
    for (std::size_t failures : {0u, 1u, 2u, 3u}) {
      MeshSimulation mesh(parallel_relays(paths), 100 + failures);
      mesh.step(300.0);
      // Fail `failures` distinct random links.
      std::vector<LinkId> all_links;
      for (LinkId id = 0; id < mesh.topology().link_count(); ++id)
        all_links.push_back(id);
      for (std::size_t f = 0; f < failures && !all_links.empty(); ++f) {
        const std::size_t pick = rng.next_below(all_links.size());
        if (rng.next_bool(0.5))
          mesh.cut_link(all_links[pick]);
        else
          mesh.eavesdrop_link(all_links[pick], 1.0);
        all_links.erase(all_links.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      std::size_t delivered = 0;
      for (int i = 0; i < 20; ++i)
        delivered += mesh.transport_key(0, 1, 128).success;
      qkd::bench::row("%14zu %14zu %9zu/20 %12lu", paths, failures, delivered,
                      static_cast<unsigned long>(mesh.stats().reroutes));
    }
  }
  qkd::bench::row("(one path dies with its first failure; 4 parallel paths "
                  "shrug off 3)");
}

void print_topology_cost_table() {
  qkd::bench::heading("E13", "Sec. 8: topology cost, full mesh vs. star");
  qkd::bench::row("%6s %18s %14s %22s", "N", "mesh links N(N-1)/2",
                  "star links", "star relay key rate*");
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const Topology mesh = Topology::full_mesh(n);
    const Topology star = Topology::star(n);
    // The hub relays every pairwise exchange: aggregate key-rate demand at
    // the hub is the sum of both link legs per transported bit.
    const double per_link = link_distill_rate_bps(star.link(0));
    qkd::bench::row("%6zu %18zu %14zu %18.0f b/s", n, mesh.link_count(),
                    star.link_count(), per_link * static_cast<double>(n) / 2.0);
  }
  qkd::bench::row("(*aggregate end-to-end capacity through the hub if every "
                  "endpoint pairs up: the star saves fiber but the hub's "
                  "links and trust become the bottleneck)");
}

void bm_mesh_step(benchmark::State& state) {
  MeshSimulation mesh(Topology::full_mesh(16), 3);
  for (auto _ : state) {
    mesh.step(1.0);
    benchmark::DoNotOptimize(mesh.link_pool_bits(0));
  }
}
BENCHMARK(bm_mesh_step);

void bm_transport_key(benchmark::State& state) {
  MeshSimulation mesh(Topology::relay_ring(8), 5);
  mesh.step(36000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh.transport_key(8, 9, 128));
  }
}
BENCHMARK(bm_transport_key);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_resilience_table();
  print_topology_cost_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
