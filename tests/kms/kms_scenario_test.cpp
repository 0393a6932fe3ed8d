// The KMS on the scenario engine: ClientArrival/ClientDeparture actions
// ramp a fleet up and down, an eavesdropping-induced drought sheds
// low-priority load first and recovers, and the TimelineRecorder samples
// per-class service state (including the to_csv export).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::NodeId;
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
  kms.bind_metrics(runner.registry(), "kms");

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
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const std::string stem =
        std::string("kms_") + qos_class_name(static_cast<QosClass>(qos));
    for (const char* field : {"_queue_depth", "_granted", "_shed"})
      EXPECT_TRUE(runner.recorder().points().back().find(stem + field))
          << stem + field;
  }
  const std::string rendered = runner.recorder().render();
  EXPECT_NE(rendered.find("ClientArrival"), std::string::npos);
  EXPECT_NE(rendered.find("ClientDeparture"), std::string::npos);

  const std::string csv = runner.recorder().to_csv();
  EXPECT_NE(csv.find("kms_realtime_queue_depth"), std::string::npos);
  EXPECT_NE(csv.find("kms_bulk_granted"), std::string::npos);
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, runner.recorder().points().size() + 1);  // header + samples
}

TEST(KmsScenario, QueueDepthGaugeMatchesThePairQueues) {
  // The per-shard queue-depth cells against the oracle: at every scripted
  // action and at the horizon, each class's gauge equals the sum of its
  // inspect_pairs() queue depths, on a sharded KMS whose shards set their
  // cells concurrently. Eve's drought from t=20 s keeps queues backlogged.
  MeshSimulation mesh = hot_ring(405);
  Scenario day;
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{6, 7}, {0, 3},
                                 {1, 4}, {2, 5}}) {
    for (unsigned qos = 0; qos < kQosClassCount; ++qos)
      day.at(kSecond, ClientArrival{src, dst, qos, /*count=*/3,
                                    /*request_rate_hz=*/4.0, /*bits=*/128});
  }
  day.at(12 * kSecond, ClientDeparture{0, 3, /*qos=*/1, /*count=*/2});
  day.at(20 * kSecond, StartEavesdrop{6, 1.0});
  day.at(25 * kSecond, CutLink{0});
  day.at(28 * kSecond, CutLink{3});

  ScenarioRunner runner(day);
  runner.attach_mesh(mesh);
  sim::ShardedScheduler sharded(runner.scheduler(), 3,
                                std::make_shared<common::WorkerPool>(2));
  KeyManagementService::Config kms_config;
  kms_config.shed_after_starved_rounds = 1000;  // keep the backlog queued
  KeyManagementService kms(mesh, sharded, kms_config);
  KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);
  kms.bind_metrics(runner.registry(), "kms");

  std::size_t checks = 0;
  std::size_t deepest = 0;
  const auto check = [&kms, &checks, &deepest] {
    std::array<std::size_t, kQosClassCount> oracle{};
    for (const auto& pair : kms.inspect_pairs())
      for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
        oracle[qos] += pair.queue_depths[qos];
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
      EXPECT_EQ(kms.queue_depth(static_cast<QosClass>(qos)), oracle[qos])
          << qos_class_name(static_cast<QosClass>(qos));
      deepest = std::max(deepest, oracle[qos]);
    }
    ++checks;
  };
  runner.set_action_observer([&check](SimTime, const ScenarioAction&) {
    check();
  });
  runner.run(sharded, 32 * kSecond);
  check();

  EXPECT_GT(checks, 1u);
  EXPECT_GT(deepest, 0u) << "the drought must leave requests queued";
  // The registry path exports the same cells.
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const auto cls = static_cast<QosClass>(qos);
    EXPECT_EQ(runner.recorder().points().back().find(
                  std::string("kms_") + qos_class_name(cls) + "_queue_depth"),
              static_cast<double>(kms.queue_depth(cls)));
  }
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
