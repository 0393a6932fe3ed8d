// Scenario corpus — failure stories. Cascading fiber cuts, endpoint
// isolation, flapping links, cut-while-eavesdropped interactions and the
// pool refill after repair, all as declarative scripts with TimelineExpect
// golden assertions.
#include <gtest/gtest.h>

#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::sim {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::Topology;

constexpr NodeId kAlice = 6;
constexpr NodeId kBob = 7;

/// relay_ring(6) with hot optics: restored links refill within seconds, so
/// the repaired half of every story is observable inside a short horizon.
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

TEST(CorpusFailure, CascadingCutsPeelPathsAwayThenRepairHeals) {
  MeshSimulation mesh = hot_ring(31);
  Scenario script;
  script.at(10 * kSecond, CutLink{1})  // east loses relay1-relay2
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: west
      .at(25 * kSecond, CutLink{4})    // the cascade reaches the west path
      .at(35 * kSecond, KeyRequest{kAlice, kBob, 128})  // #1: nothing left
      .at(40 * kSecond, RestoreLink{1})
      .at(55 * kSecond, KeyRequest{kAlice, kBob, 128});  // #2: east again

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(60 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(1, 11 * kSecond)
      .request_served(0)
      .request_avoids_link(0, 1)
      .link_down_by(4, 26 * kSecond)
      .request_failed(1)
      .link_up_by(1, 39 * kSecond, 41 * kSecond)
      .request_served(2)
      .request_avoids_link(2, 4)
      .noted("RestoreLink");
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusFailure, TailCutIsolatesTheEndpointUntilSpliced) {
  MeshSimulation mesh = hot_ring(32);
  Scenario script;
  script.at(10 * kSecond, CutLink{6})  // alice's only tail link
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: isolated
      .at(30 * kSecond, RestoreLink{6})
      .at(45 * kSecond, KeyRequest{kAlice, kBob, 128});  // #1: back

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(6, 11 * kSecond)
      .request_failed(0)
      .link_up_by(6, 29 * kSecond, 31 * kSecond)
      .request_served(1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusFailure, FlappingLinkSettlesIntoService) {
  MeshSimulation mesh = hot_ring(33);
  Scenario script;
  script.at(5 * kSecond, CutLink{0})
      .at(8 * kSecond, RestoreLink{0})
      .at(11 * kSecond, CutLink{0})
      .at(14 * kSecond, RestoreLink{0})
      .at(17 * kSecond, CutLink{0})
      .at(20 * kSecond, RestoreLink{0})
      .at(30 * kSecond, KeyRequest{kAlice, kBob, 128});

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(35 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(0, 6 * kSecond)
      .link_up_by(0, 19 * kSecond, 21 * kSecond)
      .request_served(0);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusFailure, EveLeavingACutLinkDoesNotSpliceTheFiber) {
  MeshSimulation mesh = hot_ring(34);
  Scenario script;
  script.at(5 * kSecond, StartEavesdrop{0, 1.0})  // tapped...
      .at(10 * kSecond, CutLink{0})               // ...then cut outright
      .at(15 * kSecond, StopEavesdrop{0})  // Eve walks; the fiber stays cut
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: west only
      .at(25 * kSecond, RestoreLink{0})
      .at(40 * kSecond, KeyRequest{kAlice, kBob, 128});  // #1: east usable

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(45 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(0, 6 * kSecond)
      .request_served(0)
      .request_avoids_link(0, 0)
      .link_up_by(0, 24 * kSecond, 26 * kSecond)
      .request_served(1);
  QKD_EXPECT_TIMELINE(expect);
  // The interval (15, 25) — Eve gone, fiber still severed — must read down.
  const auto spliced_early =
      runner.recorder().first_time([](const TimelinePoint& p) {
        return p.t > 16 * kSecond && p.t < 25 * kSecond &&
               p.find("mesh_link0_usable") == 1.0;
      });
  EXPECT_FALSE(spliced_early.has_value())
      << "StopEavesdrop must not repair a cut fiber";
}

TEST(CorpusFailure, SimultaneousDualCutAndDualRepair) {
  MeshSimulation mesh = hot_ring(35);
  Scenario script;
  script.at(10 * kSecond, CutLink{0})
      .at(10 * kSecond, CutLink{5})  // both ring exits cut in one instant
      .at(20 * kSecond, KeyRequest{kAlice, kBob, 128})  // #0: no route
      .at(30 * kSecond, RestoreLink{0})
      .at(30 * kSecond, RestoreLink{5})
      .at(45 * kSecond, KeyRequest{kAlice, kBob, 128});  // #1: served

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(50 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(0, 11 * kSecond)
      .link_down_by(5, 11 * kSecond)
      .request_failed(0)
      .link_up_by(0, 29 * kSecond, 31 * kSecond)
      .link_up_by(5, 29 * kSecond, 31 * kSecond)
      .request_served(1);
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusFailure, PoolsRefillAfterRepair) {
  MeshSimulation mesh = hot_ring(36);
  Scenario script;
  script.at(5 * kSecond, CutLink{6}).at(15 * kSecond, RestoreLink{6});

  ScenarioRunner runner(std::move(script));
  runner.attach_mesh(mesh);
  runner.run(30 * kSecond);

  TimelineExpect expect(runner);
  expect.link_down_by(6, 6 * kSecond)
      .link_up_by(6, 14 * kSecond, 16 * kSecond)
      .pool_at_least_by(6, 1000.0, 30 * kSecond);
  QKD_EXPECT_TIMELINE(expect);
}

}  // namespace
}  // namespace qkd::sim
