// E14 (Sec. 8): untrusted photonic switches.
//
// "Unlike trusted relays, untrusted switches cannot extend the geographic
// reach of a QKD network. In fact, they may significantly reduce it since
// each switch adds at least a fractional dB insertion loss along the
// photonic path." Sweeps path length and per-switch insertion loss; the
// trusted-relay row shows the contrast.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.hpp"
#include "src/network/key_transport.hpp"
#include "src/network/switch_network.hpp"

namespace {

using namespace qkd::network;

Topology switch_chain(std::size_t switches, double span_km) {
  Topology topo;
  const NodeId a = topo.add_node("alice", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = span_km;
  NodeId prev = a;
  for (std::size_t i = 0; i < switches; ++i) {
    const NodeId s =
        topo.add_node("sw" + std::to_string(i), NodeKind::kUntrustedSwitch);
    topo.add_link(prev, s, optics);
    prev = s;
  }
  topo.add_link(prev, topo.add_node("bob", NodeKind::kEndpoint), optics);
  return topo;
}

void print_table() {
  qkd::bench::heading("E14", "Sec. 8: switch insertion loss vs. reach");
  qkd::bench::row("10 km spans; end-to-end key rate (bit/s):");
  qkd::bench::row("%10s %12s | %12s %12s %12s", "switches", "fiber (km)",
                  "0.5 dB/sw", "1.0 dB/sw", "2.0 dB/sw");
  for (std::size_t switches : {0u, 1u, 2u, 3u, 4u, 6u}) {
    const Topology topo = switch_chain(switches, 10.0);
    const NodeId bob = static_cast<NodeId>(switches + 1);
    double rates[3] = {0, 0, 0};
    const double losses[3] = {0.5, 1.0, 2.0};
    for (int i = 0; i < 3; ++i) {
      const auto budget = best_switch_path(topo, 0, bob, losses[i]);
      rates[i] = budget.has_value() ? budget->distilled_rate_bps : 0.0;
    }
    qkd::bench::row("%10zu %12.0f | %12.1f %12.1f %12.1f", switches,
                    10.0 * (switches + 1), rates[0], rates[1], rates[2]);
  }

  qkd::bench::row("");
  qkd::bench::row("contrast: trusted relays EXTEND reach (same 10 km spans):");
  qkd::bench::row("%10s %12s %18s", "relays", "fiber (km)",
                  "end-to-end key b/s");
  for (std::size_t relays : {0u, 2u, 4u, 6u}) {
    // Hop-by-hop: each span is an independent 10 km link; the end-to-end
    // rate is the minimum span rate (every hop consumes the same bits).
    Topology topo;
    const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
    qkd::optics::LinkParams optics;
    optics.fiber_km = 10.0;
    NodeId prev = a;
    for (std::size_t i = 0; i < relays; ++i) {
      const NodeId r =
          topo.add_node("r" + std::to_string(i), NodeKind::kTrustedRelay);
      topo.add_link(prev, r, optics);
      prev = r;
    }
    topo.add_link(prev, topo.add_node("b", NodeKind::kEndpoint), optics);
    double min_rate = 1e18;
    for (const Link& link : topo.links())
      min_rate = std::min(min_rate, link_distill_rate_bps(link));
    qkd::bench::row("%10zu %12.0f %18.1f", relays, 10.0 * (relays + 1),
                    min_rate);
  }
  qkd::bench::row("(70 km through switches: dead. 70 km through relays: full "
                  "per-span rate, paid for with trust.)");
}

void bm_switch_path_budget(benchmark::State& state) {
  const Topology topo = switch_chain(4, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_switch_path(topo, 0, 5, 1.0));
  }
}
BENCHMARK(bm_switch_path_budget);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
