// Scenario corpus — attack stories. Coordinated multi-link eavesdropping,
// below-alarm taps, relay-compromise campaigns with sweeps (RestoreNode),
// and Eve chasing the reroute across restores. Every test is one
// declarative script run end to end on the scheduler, checked with
// TimelineExpect golden assertions.
#include <gtest/gtest.h>

#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::sim {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::Topology;

// relay_ring(6): relays 0..5, alice = node 6 (tail link 6 to relay 0),
// bob = node 7 (tail link 7 to relay 3). Disjoint relay paths: east
// 0-1-2-3 over links 0,1,2 and west 0-5-4-3 over links 5,4,3.
constexpr NodeId kAlice = 6;
constexpr NodeId kBob = 7;

MeshSimulation ring(std::uint64_t seed) {
  return MeshSimulation(Topology::relay_ring(6), seed);
}

/// Optics hot enough that an abandoned link's pool refills within seconds
/// of being restored (for stories whose ending depends on the refill).
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

TEST(CorpusAttack, CoordinatedEavesdropSealsBothPathsUntilEveLeaves) {
  MeshSimulation mesh = ring(21);
  Scenario script;
  script.at(10 * kSecond, StartEavesdrop{0, 1.0})  // east sealed
      .at(10 * kSecond, StartEavesdrop{5, 1.0})    // west sealed: coordinated
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: no path left
      .at(30 * kSecond, StopEavesdrop{0})
      .at(30 * kSecond, StopEavesdrop{5})
      .at(50 * kSecond, KeyRequest{kAlice, kBob, 128});  // #1: served again

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(60 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(0, 11 * kSecond)
      .link_down_by(5, 11 * kSecond)
      .request_failed(0)
      .link_up_by(0, 29 * kSecond, 31 * kSecond)
      .link_up_by(5, 29 * kSecond, 31 * kSecond)
      .request_served(1)
      .request_clean(1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusAttack, BelowAlarmTapDegradesYieldButKeepsTheLinkInService) {
  MeshSimulation mesh = ring(22);
  Scenario script;
  script.at(5 * kSecond, StartEavesdrop{0, 0.05})  // under the QBER alarm
      .at(40 * kSecond, KeyRequest{kAlice, kBob, 128});

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.request_served(0).request_clean(0);
  QKD_EXPECT_TIMELINE(expect);
  // Below the alarm there is no abandonment: the link never reads down.
  const auto down = runner.recorder().first_time(
      [](const TimelinePoint& p) {
        return p.find("mesh_link0_usable") != 1.0;
      });
  EXPECT_FALSE(down.has_value())
      << "a 5% tap must degrade yield, not trip the alarm";
}

TEST(CorpusAttack, RelayCompromiseCampaignFlagsUntilTheSweep) {
  MeshSimulation mesh = ring(23);
  Scenario script;
  script.at(10 * kSecond, CompromiseNode{1})  // east relay owned
      .at(10 * kSecond, CompromiseNode{4})    // west relay owned: campaign
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 64})  // #0: nowhere clean
      .at(30 * kSecond, RestoreNode{1})                // swept and re-trusted
      .at(30 * kSecond, RestoreNode{4})
      .at(40 * kSecond, KeyRequest{kAlice, kBob, 64});  // #1: clean again

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.request_served(0)
      .request_flagged_compromised(0)
      .request_served(1)
      .request_clean(1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusAttack, SingleOwnedRelayIsRoutedAround) {
  MeshSimulation mesh = ring(24);
  Scenario script;
  script.at(10 * kSecond, CompromiseNode{1})
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 64});

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(30 * kSecond);

  TimelineExpect expect(runner);
  expect.request_served(0).request_clean(0).request_avoids_node(0, 1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusAttack, TapPlusCompromisePoisonsTheOnlyRemainingPath) {
  MeshSimulation mesh = ring(25);
  Scenario script;
  script.at(10 * kSecond, StartEavesdrop{4, 1.0})  // west path abandoned
      .at(10 * kSecond, CompromiseNode{2})         // east relay owned
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 64})  // #0: forced east
      .at(30 * kSecond, StopEavesdrop{4})
      .at(30 * kSecond, RestoreNode{2})
      .at(40 * kSecond, KeyRequest{kAlice, kBob, 64});  // #1: clean

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.request_served(0)
      .request_flagged_compromised(0)
      .request_served(1)
      .request_clean(1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusAttack, EveChasesTheRerouteAfterTheRestore) {
  MeshSimulation mesh = ring(26);
  Scenario script;
  script.at(10 * kSecond, StartEavesdrop{0, 1.0})  // east out
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 64})  // #0: west
      .at(30 * kSecond, StopEavesdrop{0})          // east restored...
      .at(30 * kSecond, StartEavesdrop{4, 1.0})    // ...and Eve redirects west
      .at(40 * kSecond, KeyRequest{kAlice, kBob, 64});  // #1: back east

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.request_served(0)
      .request_avoids_link(0, 0)
      .request_served(1)
      .request_avoids_link(1, 4)
      .requests_rerouted(0, 1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusAttack, TapOnTheTailLinkIsTotalDenialUntilRestore) {
  MeshSimulation mesh = hot_ring(27);
  Scenario script;
  script.at(10 * kSecond, StartEavesdrop{6, 1.0})  // alice's only tail
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: isolated
      .at(30 * kSecond, StopEavesdrop{6})
      .at(45 * kSecond, KeyRequest{kAlice, kBob, 128});  // #1: refilled

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(6, 11 * kSecond)
      .request_failed(0)
      .link_up_by(6, 29 * kSecond, 31 * kSecond)
      .pool_at_least_by(6, 128.0, 45 * kSecond)
      .request_served(1);
  QKD_EXPECT_TIMELINE(expect);
}

}  // namespace
}  // namespace qkd::sim
