// Engine-backed mesh key service: real QkdLinkSessions distilling into
// per-link pools, parallel link execution, per-link eavesdropping, and the
// engine-backed MeshSimulation mode built on top.
#include "src/network/key_service.hpp"

#include <gtest/gtest.h>

#include "src/network/key_transport.hpp"

namespace qkd::network {
namespace {

/// Operating point small enough for tests but large enough to distill:
/// half-megaslot frames yield ~100 net bits per accepted batch.
LinkKeyService::Config test_config(std::uint64_t seed = 7,
                                   std::size_t threads = 0) {
  LinkKeyService::Config config;
  config.proto.frame_slots = 1 << 19;
  config.seed = seed;
  config.threads = threads;
  return config;
}

Topology single_link_topology(double fiber_km) {
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = fiber_km;
  topo.add_link(a, b, optics);
  return topo;
}

TEST(LinkKeyService, DistillsOnEveryLinkOfAFourRelayMesh) {
  // relay_ring(4): 4 trusted relays + 2 endpoints, 6 links — every link
  // gets its own engine and accumulates pairwise key.
  const Topology topo = Topology::relay_ring(4);
  LinkKeyService service(topo, test_config());
  service.run_batches(3);
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    EXPECT_GT(service.pool_bits(id), 0u) << "link " << id;
    EXPECT_GT(service.session(id).totals().accepted_batches, 0u);
  }
}

TEST(LinkKeyService, ThreadCountDoesNotChangeAnyLinkKeyStream) {
  // Determinism across parallelism: per-link sessions and seeds are
  // independent, so a serial run and a 4-worker run must produce
  // bit-identical pools on every link.
  const Topology topo = Topology::relay_ring(4);
  LinkKeyService serial(topo, test_config(7, /*threads=*/1));
  LinkKeyService parallel(topo, test_config(7, /*threads=*/4));
  serial.run_batches(2);
  parallel.run_batches(2);
  for (LinkId id = 0; id < topo.link_count(); ++id)
    EXPECT_TRUE(serial.supply(id).take_all().bits ==
                parallel.supply(id).take_all().bits)
        << "link " << id;
}

TEST(LinkKeyService, WorkerLanesClampOnceAtConstruction) {
  // relay_ring(4) has 6 links: the lane count is min(threads, links),
  // decided ONCE when the pool is built — not per batch.
  const Topology topo = Topology::relay_ring(4);
  EXPECT_EQ(LinkKeyService(topo, test_config(7, 16)).worker_lanes(), 6u);
  EXPECT_EQ(LinkKeyService(topo, test_config(7, 3)).worker_lanes(), 3u);
  EXPECT_EQ(LinkKeyService(topo, test_config(7, 1)).worker_lanes(), 1u);
  EXPECT_EQ(LinkKeyService(single_link_topology(1.0), test_config(7, 8))
                .worker_lanes(),
            1u);

  // Disabling links mid-run must NOT re-clamp: the lane count is a
  // construction-time property (the old per-batch min() recomputed it).
  LinkKeyService service(topo, test_config(7, 16));
  for (LinkId id = 0; id + 1 < topo.link_count(); ++id)
    service.set_link_enabled(id, false);
  service.run_batches(1);
  EXPECT_EQ(service.worker_lanes(), 6u);
}

TEST(LinkKeyService, SharedWorkerPoolIsAdoptedAndStaysDeterministic) {
  // A caller-supplied pool is used as-is (its lane count wins over
  // Config::threads) and the distilled streams still match the serial
  // run bit for bit.
  const Topology topo = Topology::relay_ring(4);
  auto pool = std::make_shared<qkd::common::WorkerPool>(2);
  LinkKeyService::Config shared_config = test_config(7, /*threads=*/1);
  shared_config.pool = pool;
  LinkKeyService shared(topo, shared_config);
  EXPECT_EQ(shared.worker_lanes(), 2u);

  LinkKeyService serial(topo, test_config(7, /*threads=*/1));
  shared.run_batches(2);
  serial.run_batches(2);
  for (LinkId id = 0; id < topo.link_count(); ++id)
    EXPECT_TRUE(shared.supply(id).take_all().bits ==
                serial.supply(id).take_all().bits)
        << "link " << id;
}

TEST(LinkKeyService, LinksDeriveIndependentKeyStreams) {
  // Same optics, same master seed — but different links must not replay
  // each other's keys.
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  const NodeId c = topo.add_node("c", NodeKind::kEndpoint);
  topo.add_link(a, b);
  topo.add_link(b, c);
  LinkKeyService service(topo, test_config());
  service.run_batches(2);
  ASSERT_GT(service.pool_bits(0), 0u);
  EXPECT_FALSE(service.supply(0).take_all().bits ==
               service.supply(1).take_all().bits);
}

TEST(LinkKeyService, SupplyRequestsAreFifoAndRefuseShortPools) {
  // A failed request must not consume or reorder pool bits: a refusal
  // followed by a sufficient request yields the same stream as a single
  // withdrawal would have.
  const Topology topo = single_link_topology(10.0);
  LinkKeyService reference(topo, test_config(3, 1));
  LinkKeyService service(topo, test_config(3, 1));
  reference.run_batches(3);
  service.run_batches(3);
  const qkd::BitVector all = reference.supply(0).take_all().bits;
  ASSERT_GT(all.size(), 48u);

  qkd::keystore::KeySupply& supply = service.supply(0);
  const auto first = supply.request_bits(16);
  // Over-ask between two good requests: refused without consuming.
  EXPECT_FALSE(supply.request_bits(all.size()).has_value());
  const auto second = supply.request_bits(32);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_TRUE(first->bits == all.slice(0, 16));
  EXPECT_TRUE(second->bits == all.slice(16, 32));
  EXPECT_EQ(service.pool_bits(0), all.size() - 48);

  // And another refusal at the tail still leaves the remainder intact.
  EXPECT_FALSE(supply.request_bits(all.size()).has_value());
  EXPECT_EQ(service.pool_bits(0), all.size() - 48);
  const auto rest = supply.request_bits(all.size() - 48);
  ASSERT_TRUE(rest.has_value());
  EXPECT_TRUE(rest->bits == all.slice(48, all.size() - 48));
}

TEST(LinkKeyService, InterceptResendSuppressesOnlyTheAttackedLink) {
  const Topology topo = Topology::star(3);
  LinkKeyService service(topo, test_config());
  service.set_attack(0, std::make_unique<qkd::optics::InterceptResendAttack>(
                            1.0));
  service.run_batches(2);
  EXPECT_EQ(service.pool_bits(0), 0u);
  EXPECT_GT(service.session(0).totals().aborted_qber(), 0u);
  for (LinkId id = 1; id < topo.link_count(); ++id)
    EXPECT_GT(service.pool_bits(id), 0u) << "link " << id;
}

TEST(LinkKeyService, DisabledLinksRunNoBatches) {
  const Topology topo = Topology::star(2);
  LinkKeyService service(topo, test_config());
  service.set_link_enabled(0, false);
  service.run_batches(2);
  EXPECT_EQ(service.pool_bits(0), 0u);
  EXPECT_EQ(service.session(0).totals().batches, 0u);
  EXPECT_GT(service.pool_bits(1), 0u);
}

TEST(LinkKeyService, AdvanceRunsWholeFramesAndCarriesTheRemainder) {
  const Topology topo = single_link_topology(10.0);
  LinkKeyService service(topo, test_config(9, 1));
  const double frame_s = service.session(0).link().frame_duration_s(
      service.session(0).config().frame_slots);
  service.advance(2.5 * frame_s);  // two whole frames, half a frame owed
  EXPECT_EQ(service.session(0).totals().batches, 2u);
  service.advance(0.6 * frame_s);  // debt crosses one more whole frame
  EXPECT_EQ(service.session(0).totals().batches, 3u);
}

// ---- Engine-backed MeshSimulation -----------------------------------------

TEST(EngineMesh, TransportsKeyEndToEndOverAFourRelayRing) {
  // The acceptance scenario: pools filled by real distillation (not the
  // analytic shortcut), then a trusted-relay transport across the mesh.
  MeshSimulation mesh(Topology::relay_ring(4), 2, test_config());
  ASSERT_EQ(mesh.rate_model(), RateModel::kEngine);
  ASSERT_NE(mesh.key_service(), nullptr);

  const double frame_s = mesh.key_service()->session(0).link().frame_duration_s(
      mesh.key_service()->session(0).config().frame_slots);
  // Six frames per link: every pool must cover the 64-bit payload plus the
  // per-hop frame overhead.
  mesh.step(6.0 * frame_s);
  for (LinkId id = 0; id < mesh.topology().link_count(); ++id)
    EXPECT_GT(mesh.link_pool_bits(id), 0.0) << "link " << id;

  // relay_ring(4): endpoints are nodes 4 (alice) and 5 (bob).
  const auto result = mesh.transport_key(4, 5, 64);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.key.size(), 64u);
  EXPECT_EQ(result.pool_bits_consumed,
            (64u + MeshSimulation::kFrameOverheadBits) *
                result.route.hop_count());
}

TEST(EngineMesh, EavesdroppedLinkIsAbandonedAndStopsDistilling) {
  MeshSimulation mesh(Topology::star(2), 3, test_config());
  const double qber = mesh.eavesdrop_link(0, 1.0);
  EXPECT_GT(qber, 0.11);
  EXPECT_EQ(mesh.topology().link(0).state, LinkState::kEavesdropped);

  const double frame_s = mesh.key_service()->session(0).link().frame_duration_s(
      mesh.key_service()->session(0).config().frame_slots);
  mesh.step(2.0 * frame_s);
  EXPECT_DOUBLE_EQ(mesh.link_pool_bits(0), 0.0);  // abandoned: no batches
  EXPECT_GT(mesh.link_pool_bits(1), 0.0);         // the clean link distills

  // Restoration clears the attack; the engine resumes delivering key.
  mesh.restore_link(0);
  mesh.step(2.0 * frame_s);
  EXPECT_GT(mesh.link_pool_bits(0), 0.0);
}

TEST(EngineMesh, SubAlarmEavesdroppingIsChargedByTheRealPipeline) {
  // A 10 % intercept fraction stays below the alarm, but the engines see
  // the induced errors and distill measurably less than a clean mesh.
  MeshSimulation clean(Topology::star(2), 4, test_config());
  MeshSimulation tapped(Topology::star(2), 4, test_config());
  const double qber = tapped.eavesdrop_link(0, 0.10);
  EXPECT_LT(qber, 0.11);
  EXPECT_EQ(tapped.topology().link(0).state, LinkState::kUp);

  const double frame_s =
      clean.key_service()->session(0).link().frame_duration_s(
          clean.key_service()->session(0).config().frame_slots);
  clean.step(6.0 * frame_s);
  tapped.step(6.0 * frame_s);
  EXPECT_LT(tapped.link_pool_bits(0), clean.link_pool_bits(0));
}

}  // namespace
}  // namespace qkd::network
