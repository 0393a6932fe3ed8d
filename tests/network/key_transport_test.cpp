#include "src/network/key_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "src/network/key_service.hpp"
#include "src/qkd/engine.hpp"

namespace qkd::network {
namespace {

TEST(DistillFraction, PositiveAtOperatingPointZeroPastAlarm) {
  qkd::optics::LinkParams params;  // ~6 % QBER
  EXPECT_GT(estimated_distill_fraction(qkd::optics::LinkModel(params)), 0.1);
  params.interferometer_visibility = 0.7;  // 15 % error floor
  EXPECT_DOUBLE_EQ(estimated_distill_fraction(qkd::optics::LinkModel(params)),
                   0.0);
}

TEST(DistillFraction, AgreesWithEngineBackedServiceAtTwoOperatingPoints) {
  // The analytic mesh model is the fast estimator for the engine-backed
  // LinkKeyService; cross-validate them at the paper's 10 km operating
  // point and at 20 km. Stated tolerance: the engine-measured rate must be
  // within a factor of [0.4, 2.0] of the analytic prediction. The analytic
  // model ignores finite-block effects (the c*sigma confidence margin and
  // pa_margin_bits) that push the engine below it — increasingly so at
  // 20 km where batches are smaller — and it does not model auth
  // replenishment at all, so the engine runs with replenishment off here.
  // Over seeds 1-1,000 one batch distills 0.64x (sd 0.15x) of the
  // analytic rate at 10 km and 0.52x (sd 0.20x) at 20 km, where an aborted
  // batch distills nothing. Averaging over 16 batches at 10 km and 96 at
  // 20 km puts the 0.4 floor 6.6 and 5.7 sigma of the mean below those
  // means: a false-failure rate < 1e-8 under the normal approximation. The
  // 2.0 ceiling is further still. Without replenishment a service's pads
  // last ~32 batches, so the 96 run as six independent 16-batch services.
  for (const auto& [fiber_km, services] :
       {std::pair{10.0, 1}, std::pair{20.0, 6}}) {
    qkd::optics::LinkParams params;
    params.fiber_km = fiber_km;
    const qkd::optics::LinkModel model(params);
    const double analytic_bps =
        model.sifted_rate_bps() * estimated_distill_fraction(model);
    ASSERT_GT(analytic_bps, 0.0) << fiber_km;

    Topology topo;
    const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
    const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
    topo.add_link(a, b, params);
    double engine_bps = 0.0;
    for (int k = 0; k < services; ++k) {
      LinkKeyService::Config config;
      config.proto.frame_slots = 1 << 20;
      config.proto.auth_replenish_bits = 0;
      config.seed = 44 + static_cast<std::uint64_t>(k);
      LinkKeyService service(topo, config);
      service.run_batches(16);
      engine_bps += service.session(0).totals().distilled_rate_bps() / services;
    }

    EXPECT_GT(engine_bps, 0.4 * analytic_bps) << fiber_km << " km";
    EXPECT_LT(engine_bps, 2.0 * analytic_bps) << fiber_km << " km";
  }
}

TEST(LinkRate, CutAndEavesdroppedLinksProduceNothing) {
  Topology topo = Topology::star(2);
  Link link = topo.link(0);
  EXPECT_GT(link_distill_rate_bps(link), 0.0);
  link.state = LinkState::kCut;
  EXPECT_DOUBLE_EQ(link_distill_rate_bps(link), 0.0);
  link.state = LinkState::kEavesdropped;
  EXPECT_DOUBLE_EQ(link_distill_rate_bps(link), 0.0);
}

TEST(Mesh, LinksAccumulateKeyOverTime) {
  MeshSimulation mesh(Topology::star(3), 1);
  mesh.step(10.0);
  for (LinkId id = 0; id < mesh.topology().link_count(); ++id)
    EXPECT_GT(mesh.link_pool_bits(id), 100.0) << id;
}

TEST(Mesh, TransportDeliversKeyEndToEnd) {
  MeshSimulation mesh(Topology::relay_ring(6), 2);
  mesh.step(60.0);
  const auto result = mesh.transport_key(6, 7, 256);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.key.size(), 256u);
  EXPECT_EQ(result.route.nodes.front(), 6u);
  EXPECT_EQ(result.route.nodes.back(), 7u);
  // Every hop consumed the 256 payload bits plus the frame header+tag.
  EXPECT_EQ(result.pool_bits_consumed,
            (256u + MeshSimulation::kFrameOverheadBits) *
                result.route.hop_count());
}

TEST(Mesh, BatchedTransportAmortizesFrameOverheadAcrossRequests) {
  // Two same-destination requests in one frame pay the per-hop header+tag
  // once; two separate transports pay it twice. Same payload either way.
  MeshSimulation batched(Topology::relay_ring(6), 12);
  MeshSimulation separate(Topology::relay_ring(6), 12);
  batched.step(120.0);
  separate.step(120.0);

  const auto one_frame = batched.transport_key_batch(6, 7, {128, 64});
  ASSERT_TRUE(one_frame.success);
  const auto first = separate.transport_key(6, 7, 128);
  const auto second = separate.transport_key(6, 7, 64);
  ASSERT_TRUE(first.success);
  ASSERT_TRUE(second.success);
  ASSERT_EQ(one_frame.route.links, first.route.links);

  EXPECT_EQ(one_frame.key.size(), 128u + 64u);
  EXPECT_EQ(one_frame.pool_bits_consumed,
            (128u + 64u + MeshSimulation::kFrameOverheadBits) *
                one_frame.route.hop_count());
  EXPECT_LT(one_frame.pool_bits_consumed,
            first.pool_bits_consumed + second.pool_bits_consumed);
  EXPECT_EQ(first.pool_bits_consumed + second.pool_bits_consumed -
                one_frame.pool_bits_consumed,
            MeshSimulation::kFrameOverheadBits * one_frame.route.hop_count());

  // Both requests rode one frame, so both keys were seen by exactly the
  // frame's relay set — the same relays the separate transports exposed to.
  EXPECT_EQ(one_frame.exposed_to.size(), one_frame.route.hop_count() - 1);
  EXPECT_EQ(one_frame.exposed_to, first.exposed_to);
  for (NodeId relay : one_frame.exposed_to)
    EXPECT_EQ(batched.topology().node(relay).kind, NodeKind::kTrustedRelay);
}

TEST(Mesh, DegenerateTransportBatchesThrow) {
  MeshSimulation mesh(Topology::star(2), 13);
  mesh.step(10.0);
  EXPECT_THROW(mesh.transport_key_batch(1, 2, {}), std::invalid_argument);
  EXPECT_THROW(mesh.transport_key_batch(1, 2, {64, 0}),
               std::invalid_argument);
}

TEST(Mesh, StarvedBatchFailsWithoutConsumingAnyHop) {
  MeshSimulation mesh(Topology::relay_ring(6), 14);
  mesh.step(60.0);
  const double before = mesh.link_pool_bits(0);
  const auto result = mesh.transport_key_batch(6, 7, {1 << 20, 64});
  EXPECT_FALSE(result.success);
  EXPECT_DOUBLE_EQ(mesh.link_pool_bits(0), before);
}

TEST(Mesh, TransportExposesKeyToEveryIntermediateRelay) {
  // "the relays must be trusted" — the simulation records exactly who saw
  // the key in the clear.
  MeshSimulation mesh(Topology::relay_ring(6), 3);
  mesh.step(60.0);
  const auto result = mesh.transport_key(6, 7, 128);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.exposed_to.size(), result.route.hop_count() - 1);
  for (NodeId relay : result.exposed_to)
    EXPECT_EQ(mesh.topology().node(relay).kind, NodeKind::kTrustedRelay);
}

TEST(Mesh, FiberCutTriggersReroute) {
  MeshSimulation mesh(Topology::relay_ring(6), 4);
  mesh.step(120.0);
  const auto before = mesh.transport_key(6, 7, 128);
  ASSERT_TRUE(before.success);
  // Cut a link on the route just used.
  mesh.cut_link(before.route.links[1]);
  const auto after = mesh.transport_key(6, 7, 128);
  ASSERT_TRUE(after.success);  // mesh survives: the headline of Sec. 8
  EXPECT_NE(after.route.links, before.route.links);
  EXPECT_GE(mesh.stats().reroutes, 1u);
}

TEST(Mesh, EavesdroppingAbandonsLinkAndReroutes) {
  MeshSimulation mesh(Topology::relay_ring(6), 5);
  mesh.step(120.0);
  const auto before = mesh.transport_key(6, 7, 128);
  ASSERT_TRUE(before.success);
  const double qber = mesh.eavesdrop_link(before.route.links[1], 1.0);
  EXPECT_GT(qber, 0.11);
  EXPECT_EQ(mesh.topology().link(before.route.links[1]).state,
            LinkState::kEavesdropped);
  const auto after = mesh.transport_key(6, 7, 128);
  ASSERT_TRUE(after.success);
  EXPECT_NE(after.route.links, before.route.links);
}

TEST(Mesh, MildEavesdroppingSlowsButDoesNotKill) {
  MeshSimulation mesh(Topology::star(2), 6);
  const double qber = mesh.eavesdrop_link(0, 0.05);  // ~ +1.2 % QBER
  EXPECT_LT(qber, 0.11);
  EXPECT_EQ(mesh.topology().link(0).state, LinkState::kUp);
  MeshSimulation clean(Topology::star(2), 6);
  mesh.step(10.0);
  clean.step(10.0);
  EXPECT_LT(mesh.link_pool_bits(0), clean.link_pool_bits(0));
  EXPECT_GT(mesh.link_pool_bits(0), 0.0);
}

TEST(Mesh, SeveringAllPathsFailsTransport) {
  MeshSimulation mesh(Topology::relay_ring(4), 7);
  mesh.step(60.0);
  // alice attaches to relay 0 by the second-to-last link; cut both ring
  // directions out of relay 0.
  const auto r0_links = mesh.topology().links_of(0);
  for (LinkId id : r0_links) {
    if (!mesh.topology().link(id).connects(4))  // keep alice's tail link
      mesh.cut_link(id);
  }
  const auto result = mesh.transport_key(4, 5, 64);
  EXPECT_FALSE(result.success);
  EXPECT_GE(mesh.stats().transports_no_route, 1u);
}

TEST(Mesh, StarvedPoolsFailWithoutConsuming) {
  MeshSimulation mesh(Topology::relay_ring(6), 8);
  mesh.step(0.001);  // essentially no key accumulated
  const auto result = mesh.transport_key(6, 7, 100000);
  EXPECT_FALSE(result.success);
  EXPECT_GE(mesh.stats().transports_starved, 1u);
  // Pools untouched by the failed attempt.
  mesh.step(60.0);
  const auto retry = mesh.transport_key(6, 7, 128);
  EXPECT_TRUE(retry.success);
}

TEST(Mesh, MidRunRerouteAvoidsCutLinkAndUpdatesExposure) {
  // Transports are already flowing when the failure lands — the dynamic
  // version of the static-topology cut tests above. Time advances through
  // the shared clocked stepping path (run_on_clock), not ad-hoc step()s.
  MeshSimulation mesh(Topology::relay_ring(6), 10);
  qkd::SimClock clock;
  mesh.run_on_clock(clock, 240.0, /*tick_seconds=*/1.0);
  const auto first = mesh.transport_key(6, 7, 64);
  const auto second = mesh.transport_key(6, 7, 64);
  ASSERT_TRUE(first.success);
  ASSERT_TRUE(second.success);
  EXPECT_EQ(second.route.links, first.route.links) << "route stable pre-cut";
  EXPECT_EQ(mesh.stats().reroutes, 0u);

  // Cut a ring link in the middle of the active route; the rest of the
  // mesh keeps distilling.
  const LinkId cut = first.route.links[first.route.links.size() / 2];
  mesh.cut_link(cut);
  mesh.run_on_clock(clock, 30.0, /*tick_seconds=*/1.0);
  EXPECT_EQ(clock.now(), 270 * qkd::kSecond);

  const auto after = mesh.transport_key(6, 7, 64);
  ASSERT_TRUE(after.success);
  EXPECT_EQ(mesh.stats().reroutes, 1u);
  EXPECT_EQ(std::count(after.route.links.begin(), after.route.links.end(),
                       cut),
            0)
      << "new route must avoid the cut link";
  // The detour crosses the far side of the ring: a different relay set now
  // holds the key in the clear.
  EXPECT_NE(after.exposed_to, first.exposed_to);
  EXPECT_EQ(after.exposed_to.size(), after.route.hop_count() - 1);
  for (NodeId relay : after.exposed_to)
    EXPECT_EQ(mesh.topology().node(relay).kind, NodeKind::kTrustedRelay);
}

TEST(Mesh, CompromisedRelaysFlagDeliveredKeysUntilRestored) {
  MeshSimulation mesh(Topology::relay_ring(6), 11);
  mesh.step(240.0);
  // Relays 1 (east path) and 4 (west path) both fall: no clean route
  // remains, so delivery succeeds but is flagged as exposed to Eve.
  mesh.compromise_node(1);
  mesh.compromise_node(4);
  EXPECT_TRUE(mesh.node_compromised(1));
  const auto owned = mesh.transport_key(6, 7, 64);
  ASSERT_TRUE(owned.success);
  EXPECT_TRUE(owned.compromised);
  EXPECT_EQ(mesh.stats().transports_compromised, 1u);

  mesh.restore_node(1);
  mesh.restore_node(4);
  const auto clean = mesh.transport_key(6, 7, 64);
  ASSERT_TRUE(clean.success);
  EXPECT_FALSE(clean.compromised);
  EXPECT_EQ(mesh.stats().transports_compromised, 1u);
}

TEST(Mesh, RestoreLinkHeals) {
  MeshSimulation mesh(Topology::star(2), 9);
  mesh.cut_link(0);
  mesh.step(10.0);
  EXPECT_DOUBLE_EQ(mesh.link_pool_bits(0), 0.0);
  mesh.restore_link(0);
  mesh.step(10.0);
  EXPECT_GT(mesh.link_pool_bits(0), 0.0);
}

}  // namespace
}  // namespace qkd::network
