// The KMS on the scenario engine: ClientArrival/ClientDeparture actions
// ramp a fleet up and down, an eavesdropping-induced drought sheds
// low-priority load first and recovers, and the TimelineRecorder samples
// per-class service state (including the to_csv export).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::Topology;
using namespace qkd::sim;

/// relay_ring(6) with optics hot enough (~tens of kb/s distilled per link)
/// to feed a small fleet; endpoints are nodes 6 (alice, tail link 6) and 7.
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

TEST(KmsScenario, FleetRampsShedsUnderEavesdropAndRecovers) {
  MeshSimulation mesh = hot_ring(404);

  Scenario day;
  // 08:00-ish: the fleet comes online — realtime and bulk cohorts.
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/5,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/10,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  // Midday: Eve camps on alice's tail link — QBER alarm, no route, drought.
  day.at(20 * kSecond, StartEavesdrop{6, 1.0});
  // Afternoon: she leaves; the link is trusted and refills.
  day.at(40 * kSecond, StopEavesdrop{6});
  // Evening: the bulk cohort logs off.
  day.at(55 * kSecond, ClientDeparture{6, 7, /*qos=*/2, /*count=*/10});

  ScenarioRunner::Config runner_config;
  runner_config.sample_interval = kSecond;
  ScenarioRunner runner(day, runner_config);
  runner.attach_mesh(mesh);

  KeyManagementService::Config kms_config;
  kms_config.shed_after_starved_rounds = 2;
  kms_config.retry_backoff = 500 * kMillisecond;
  KeyManagementService kms(mesh, runner.scheduler(), kms_config);
  KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);
  runner.recorder().attach_service(kms);

  runner.run(70 * kSecond);

  // The ramp and the departure both took effect.
  EXPECT_EQ(fleet.active_clients(), 5u);
  EXPECT_EQ(kms.client_count(), 5u);

  // Both classes were served while the mesh was healthy...
  const auto& rt = kms.class_stats(QosClass::kRealtime);
  const auto& bulk = kms.class_stats(QosClass::kBulk);
  EXPECT_GT(rt.granted, 100u);
  EXPECT_GT(bulk.granted, 0u);
  // ...the drought shed bulk load but never realtime...
  EXPECT_GT(bulk.shed, 0u);
  EXPECT_EQ(rt.shed, 0u);
  EXPECT_GT(kms.stats().starved_rounds, 0u);
  // ...and after Eve left, the realtime backlog drained.
  EXPECT_LT(kms.queue_depth(QosClass::kRealtime), 5u);

  // Every grant's peer copy matched the initiator's bits (key-ID
  // agreement, exercised once per grant by the fleet).
  EXPECT_EQ(fleet.stats().claims_matched, fleet.stats().granted);
  EXPECT_EQ(fleet.stats().claims_mismatched, 0u);

  // The recorder charted the service: per-class samples in the points,
  // scenario actions in the notes, and a plottable CSV.
  ASSERT_FALSE(runner.recorder().points().empty());
  ASSERT_EQ(runner.recorder().points().back().service.size(),
            kQosClassCount);
  const std::string rendered = runner.recorder().render();
  EXPECT_NE(rendered.find("ClientArrival"), std::string::npos);
  EXPECT_NE(rendered.find("ClientDeparture"), std::string::npos);

  const std::string csv = runner.recorder().to_csv();
  EXPECT_NE(csv.find("svc_realtime_queue"), std::string::npos);
  EXPECT_NE(csv.find("svc_bulk_granted"), std::string::npos);
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, runner.recorder().points().size() + 1);  // header + samples
}

TEST(KmsScenario, ClientActionsWithoutADriverThrow) {
  MeshSimulation mesh = hot_ring(7);
  Scenario script;
  script.at(kSecond, ClientArrival{6, 7});
  ScenarioRunner runner(script);
  runner.attach_mesh(mesh);
  EXPECT_THROW(runner.run(2 * kSecond), std::logic_error);
}

}  // namespace
}  // namespace qkd::kms
