// Scenario acceptance: scripted timelines run through the EventScheduler
// alone — no test-side interleaving loops — and the TimelineRecorder's
// series carry the assertions.
#include "src/sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qkd::sim {
namespace {

using network::LinkState;
using network::MeshSimulation;
using network::NodeId;
using network::Topology;

/// relay_ring(6): relays 0..5 in a ring (link i joins relay i and relay
/// (i+1)%6), alice = node 6 on link 6 to relay 0, bob = node 7 on link 7 to
/// relay 3. Two disjoint relay paths: east 0-1-2-3 and west 0-5-4-3.
constexpr NodeId kAlice = 6;
constexpr NodeId kBob = 7;

TEST(Scenario, EavesdropRerouteRestoreRunsOnTheSchedulerAlone) {
  MeshSimulation mesh(Topology::relay_ring(6), 7);

  Scenario script;
  script.at(10 * kSecond, StartEavesdrop{5, 1.0})   // west path abandoned
      .at(45 * kSecond, KeyRequest{kAlice, kBob, 128})  // forced east
      .at(60 * kSecond, StopEavesdrop{5})           // Eve walks; west back
      .at(60 * kSecond, StartEavesdrop{0, 1.0})     // ...and taps the east
      .at(100 * kSecond, KeyRequest{kAlice, kBob, 128})  // must reroute west
      .at(130 * kSecond, StopEavesdrop{0});         // fiber trusted again

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  const std::size_t dispatched = runner.run(180 * kSecond);

  // The scheduler did all the driving: distillation ticks, sampling, and
  // the six scripted actions.
  EXPECT_GT(dispatched, 300u);
  EXPECT_EQ(runner.clock().now(), 180 * kSecond);

  // Both requests were served.
  ASSERT_EQ(runner.key_requests().size(), 2u);
  const auto& first = runner.key_requests()[0];
  const auto& second = runner.key_requests()[1];
  ASSERT_TRUE(first.result.success);
  ASSERT_TRUE(second.result.success);
  EXPECT_EQ(mesh.stats().transports_succeeded, 2u);

  // First request went east (link 5 was abandoned), exposing relays
  // 0-1-2-3; the second had to reroute west around the tapped link 0.
  EXPECT_EQ(first.result.exposed_to, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(second.result.exposed_to, (std::vector<NodeId>{0, 5, 4, 3}));
  EXPECT_EQ(mesh.stats().reroutes, 1u);
  const auto& relinks = second.result.route.links;
  EXPECT_TRUE(std::find(relinks.begin(), relinks.end(), 0u) == relinks.end())
      << "rerouted path must avoid the eavesdropped link";

  // Timeline: link 0's pool was purged when the alarm abandoned it, and the
  // link reads unusable between the tap and the restore.
  const TimelineRecorder& recorder = runner.recorder();
  ASSERT_GE(recorder.points().size(), 170u);  // 1 Hz sampling + final
  const auto tapped = recorder.first_time(
      [](const TimelinePoint& p) {
        return p.find("mesh_link0_usable") == 0.0;
      });
  ASSERT_TRUE(tapped.has_value());
  EXPECT_GT(*tapped, 60 * kSecond - kSecond);
  EXPECT_LE(*tapped, 61 * kSecond);
  const auto restored = recorder.first_time([&](const TimelinePoint& p) {
    return p.t > *tapped && p.find("mesh_link0_usable") == 1.0;
  });
  ASSERT_TRUE(restored.has_value());
  EXPECT_GT(*restored, 130 * kSecond - kSecond);
  EXPECT_LE(*restored, 131 * kSecond);

  // Pool depth series: flat zero while abandoned, growing after restore.
  const auto series = recorder.series("mesh_link0_pool_bits");
  const std::size_t at_120 = 119;  // ~t=120 s with 1 Hz sampling
  EXPECT_DOUBLE_EQ(series.at(at_120), 0.0);
  EXPECT_GT(series.back(), 0.0);

  // The run left a readable story: 6 scripted actions + 2 request outcomes.
  EXPECT_EQ(recorder.notes().size(), 8u);
  EXPECT_FALSE(recorder.render().empty());
}

TEST(Scenario, CompromisedRelayIsRoutedAroundThenPoisonsBothPaths) {
  MeshSimulation mesh(Topology::relay_ring(6), 11);

  Scenario script;
  script.at(30 * kSecond, KeyRequest{kAlice, kBob, 64})
      .at(40 * kSecond, CompromiseNode{1})               // east relay owned
      .at(50 * kSecond, KeyRequest{kAlice, kBob, 64})    // dodges west
      .at(60 * kSecond, CompromiseNode{4})               // west relay owned
      .at(70 * kSecond, KeyRequest{kAlice, kBob, 64});   // nowhere clean

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(80 * kSecond);

  ASSERT_EQ(runner.key_requests().size(), 3u);
  const auto& clean = runner.key_requests()[1];
  ASSERT_TRUE(clean.result.success);
  EXPECT_FALSE(clean.result.compromised)
      << "routing must dodge the single owned relay";
  EXPECT_EQ(clean.result.exposed_to, (std::vector<NodeId>{0, 5, 4, 3}));

  const auto& poisoned = runner.key_requests()[2];
  ASSERT_TRUE(poisoned.result.success);
  EXPECT_TRUE(poisoned.result.compromised)
      << "with both paths owned, delivery succeeds but is flagged";
  EXPECT_EQ(mesh.stats().transports_compromised, 1u);
}

TEST(Scenario, EngineBackedLinkDistillsViaScheduledBatchCompletions) {
  // One real engine-backed link: its Qframe completions are events on the
  // scheduler (no step()/advance() calls anywhere), and the recorder
  // watches the supply fill batch by batch.
  Topology topo;
  const NodeId a = topo.add_node("a", network::NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", network::NodeKind::kEndpoint);
  topo.add_link(a, b, {});
  network::LinkKeyService::Config engine;
  engine.proto.auth_replenish_bits = 0;
  engine.threads = 1;
  MeshSimulation mesh(std::move(topo), 5, engine);

  ScenarioRunner runner{Scenario{}};
  runner.attach_mesh(mesh);
  runner.run(10 * kSecond);

  // ~1.05 s per 2^20-slot frame at 1 MHz: nine batch events in 10 s.
  EXPECT_EQ(mesh.key_service()->session(0).totals().batches, 9u);
  EXPECT_GT(mesh.link_pool_bits(0), 0.0);

  // The pool series is non-decreasing and ends at the live value.
  const auto series = runner.recorder().series("mesh_link0_pool_bits");
  ASSERT_GE(series.size(), 10u);
  EXPECT_TRUE(std::is_sorted(series.begin(), series.end()));
  EXPECT_DOUBLE_EQ(series.back(), mesh.link_pool_bits(0));
}

TEST(Scenario, KeyRequestWithoutMeshThrows) {
  Scenario script;
  script.at(kSecond, KeyRequest{0, 1, 64});
  ScenarioRunner runner(std::move(script));
  EXPECT_THROW(runner.run(2 * kSecond), std::logic_error);
}

}  // namespace
}  // namespace qkd::sim
