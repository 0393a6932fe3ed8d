// The Section 8 network: trusted relays, fiber cuts, eavesdropping, and the
// untrusted-switch alternative.
//
//   $ ./relay_network
//
// Builds a 6-relay ring with two endpoints, lets the links distill pairwise
// key, and transports end-to-end keys hop by hop. Then the resilience story:
// a backhoe cuts a fiber (reroute), Eve camps on another link (QBER alarm,
// abandoned, reroute), and finally the same endpoints try an all-optical
// untrusted-switch path and discover what switch insertion loss does to
// reach.
#include <cstdio>

#include "src/network/key_transport.hpp"
#include "src/network/switch_network.hpp"

using namespace qkd::network;

namespace {

void report(const char* label, const MeshSimulation::TransportResult& r) {
  std::printf("%-34s %s", label, r.success ? "delivered" : "FAILED");
  if (r.success) {
    std::printf(" via [");
    for (std::size_t i = 0; i < r.route.nodes.size(); ++i)
      std::printf("%s%u", i ? " " : "", r.route.nodes[i]);
    std::printf("], %zu relays saw the key, %zu pool bits spent",
                r.exposed_to.size(), r.pool_bits_consumed);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  MeshSimulation mesh(Topology::relay_ring(6), 42);
  const NodeId alice = 6, bob = 7;

  std::printf("== trusted relay mesh (6-relay ring, alice=6, bob=7) ==\n");
  mesh.step(120.0);  // two minutes of pairwise distillation
  std::printf("pairwise link pools after 120 s: ~%.0f bits/link\n\n",
              mesh.link_pool_bits(0));

  report("normal transport (256-bit key):",
         mesh.transport_key(alice, bob, 256));

  // A fiber cut on the active path.
  const auto first = mesh.transport_key(alice, bob, 256);
  mesh.cut_link(first.route.links[1]);
  std::printf("\n-- backhoe cuts link %u --\n", first.route.links[1]);
  report("after fiber cut:", mesh.transport_key(alice, bob, 256));

  // Eve camps on the detour.
  const auto detour = mesh.transport_key(alice, bob, 256);
  const double qber = mesh.eavesdrop_link(detour.route.links[1], 1.0);
  std::printf("\n-- Eve intercept-resends on link %u: QBER -> %.1f%%, link "
              "abandoned --\n",
              detour.route.links[1], 100.0 * qber);
  report("after eavesdropping:", mesh.transport_key(alice, bob, 256));
  std::printf("reroutes so far: %lu\n",
              static_cast<unsigned long>(mesh.stats().reroutes));
  std::printf("(a ring offers exactly two disjoint relay paths; surviving a\n"
              " second failure requires more links — \"as much redundancy as\n"
              " desired simply by adding more links and relays\", Sec. 8)\n");

  // The same idea keyed by real engines: every link's pairwise pool is a
  // KeySupply filled by its own QkdLinkSession, and the hop-by-hop pads
  // are bits actually withdrawn from those supplies.
  std::printf("\n== engine-backed mesh (pads drawn through each link's "
              "KeySupply) ==\n");
  LinkKeyService::Config engine;
  engine.proto.frame_slots = 1 << 19;
  MeshSimulation engine_mesh(Topology::relay_ring(4), 7, engine);
  const auto& session0 = engine_mesh.key_service()->session(0);
  const double frame_s =
      session0.link().frame_duration_s(session0.config().frame_slots);
  engine_mesh.step(6.0 * frame_s);
  std::printf("supply depth after 6 Qframes/link:");
  for (LinkId id = 0; id < engine_mesh.topology().link_count(); ++id)
    std::printf(" %.0f", engine_mesh.link_pool_bits(id));
  std::printf(" bits\n");
  report("engine-mesh transport (64-bit key):",
         engine_mesh.transport_key(4, 5, 64));

  // The untrusted-switch alternative.
  std::printf("\n== untrusted photonic switches (no relay ever sees the key) ==\n");
  std::printf("%8s %12s %10s %12s\n", "switches", "fiber (km)", "QBER%",
              "key (bit/s)");
  for (std::size_t switches : {0u, 1u, 2u, 4u, 6u}) {
    Topology chain;
    const NodeId a = chain.add_node("alice", NodeKind::kEndpoint);
    qkd::optics::LinkParams span;
    span.fiber_km = 10.0;
    NodeId prev = a;
    for (std::size_t i = 0; i < switches; ++i) {
      const NodeId s = chain.add_node("sw" + std::to_string(i),
                                      NodeKind::kUntrustedSwitch);
      chain.add_link(prev, s, span);
      prev = s;
    }
    const NodeId b = chain.add_node("bob", NodeKind::kEndpoint);
    chain.add_link(prev, b, span);
    const auto budget = best_switch_path(chain, a, b, 1.5);
    if (!budget.has_value()) continue;
    std::printf("%8zu %12.0f %10.2f %12.1f%s\n", switches,
                budget->total_fiber_km, 100.0 * budget->expected_qber,
                budget->distilled_rate_bps,
                budget->in_range ? "" : "  (out of range)");
  }
  std::printf("\nSwitches preserve end-to-end secrecy but shrink reach;\n"
              "relays extend reach but must be trusted — the Section 8\n"
              "trade-off, measured.\n");
  return 0;
}
