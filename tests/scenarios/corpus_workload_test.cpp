// Scenario corpus — workload stories on the KMS. Flash crowds against
// admission control, mass departures, drought-under-load shedding order,
// degraded-but-not-denied reroutes and staggered cohorts, each a scripted
// day checked with TimelineExpect plus the service's own counters.
#include <gtest/gtest.h>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::Topology;
using namespace qkd::sim;

/// relay_ring(6) with hot optics (~tens of kb/s distilled per link):
/// endpoints are nodes 6 (alice) and 7 (bob).
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

/// The common KMS-on-a-scenario harness: runner + service + fleet wired to
/// one scheduler, the service bound into the registry the recorder samples.
struct KmsHarness {
  MeshSimulation mesh;
  ScenarioRunner runner;
  KeyManagementService kms;
  KmsClientFleet fleet;

  KmsHarness(std::uint64_t seed, Scenario scenario,
             KeyManagementService::Config kms_config)
      : mesh(hot_ring(seed)),
        runner(std::move(scenario)),
        kms(mesh, runner.scheduler(), kms_config),
        fleet(kms) {
    runner.attach_mesh(mesh);
    runner.attach_client_driver(fleet);
    kms.bind_metrics(runner.registry(), "kms");
  }
};

/// Drought-flavoured service policy: shed after two starved rounds so a
/// 20-second outage reliably reaches the shedding machinery.
KeyManagementService::Config drought_config() {
  KeyManagementService::Config config;
  config.shed_after_starved_rounds = 2;
  config.retry_backoff = 500 * kMillisecond;
  return config;
}

TEST(CorpusWorkload, FlashCrowdHitsAdmissionControlNotCollapse) {
  Scenario day;
  // A flash crowd: 40 interactive clients land at once, each firing 10 Hz.
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/1, /*count=*/40,
                                /*request_rate_hz=*/10.0, /*bits=*/128});

  KeyManagementService::Config config;
  config.max_queue_per_class = 2;  // tight admission: push back, don't queue
  KmsHarness h(41, std::move(day), config);
  h.runner.run(30 * kSecond);

  const auto& interactive = h.kms.class_stats(QosClass::kInteractive);
  EXPECT_GT(interactive.rejected_queue_full, 0u)
      << "the crowd must hit admission control";
  EXPECT_GT(interactive.granted, 100u) << "...but admitted work is served";

  TimelineExpect expect(h.runner);
  expect.class_never_shed("kms_interactive")  // rejection is not shedding
      .class_never_shed("kms_realtime")
      .class_queue_at_most_by("kms_interactive", 2, 29 * kSecond);
  QKD_EXPECT_TIMELINE(expect);
  EXPECT_EQ(h.fleet.stats().claims_mismatched, 0u);
}

TEST(CorpusWorkload, MassDepartureQuiescesTheService) {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/8,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(2 * kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/12,
                                    /*request_rate_hz=*/2.0, /*bits=*/128});
  // Everyone logs off in one instant.
  day.at(20 * kSecond, ClientDeparture{6, 7, /*qos=*/0, /*count=*/8});
  day.at(20 * kSecond, ClientDeparture{6, 7, /*qos=*/2, /*count=*/12});

  KmsHarness h(42, std::move(day), KeyManagementService::Config());
  h.runner.run(40 * kSecond);

  EXPECT_EQ(h.fleet.active_clients(), 0u);
  EXPECT_EQ(h.kms.client_count(), 0u);
  EXPECT_EQ(h.kms.queue_depth(QosClass::kRealtime), 0u);
  EXPECT_EQ(h.kms.queue_depth(QosClass::kBulk), 0u);

  TimelineExpect expect(h.runner);
  expect.class_queue_at_most_by("kms_realtime", 0, 25 * kSecond)
      .class_queue_at_most_by("kms_bulk", 0, 25 * kSecond)
      .noted("ClientDeparture");
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusWorkload, DroughtUnderLoadShedsStrictlyUpward) {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/4,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/1, /*count=*/6,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/8,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  // Eve camps on the tail link: total drought for the pair.
  day.at(15 * kSecond, StartEavesdrop{6, 1.0});
  day.at(35 * kSecond, StopEavesdrop{6});

  KmsHarness h(43, std::move(day), drought_config());
  h.runner.run(60 * kSecond);

  TimelineExpect expect(h.runner);
  expect.class_never_shed("kms_realtime")
      .class_shed_by("kms_bulk", 35 * kSecond)
      .shed_order("kms_bulk", "kms_interactive")
      .grant_rate_recovers("kms_realtime", 15 * kSecond, 45 * kSecond, 0.5);
  QKD_EXPECT_TIMELINE(expect);
  EXPECT_GT(h.kms.stats().starved_rounds, 0u);
  EXPECT_EQ(h.kms.class_stats(QosClass::kRealtime).shed, 0u);
}

TEST(CorpusWorkload, RingTapOnlyDegradesServiceNeverDeniesIt) {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/4,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/4,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  // Eve on a RING link: the mesh reroutes west, the KMS never notices.
  day.at(15 * kSecond, StartEavesdrop{0, 1.0});

  KmsHarness h(44, std::move(day), drought_config());
  h.runner.run(40 * kSecond);

  TimelineExpect expect(h.runner);
  expect.class_never_shed("kms_realtime")
      .class_never_shed("kms_interactive")
      .class_never_shed("kms_bulk")
      .grant_rate_recovers("kms_realtime", 15 * kSecond, 20 * kSecond, 0.8);
  QKD_EXPECT_TIMELINE(expect);
  EXPECT_EQ(h.kms.stats().shed_events, 0u);
  EXPECT_EQ(h.fleet.stats().claims_mismatched, 0u);
}

TEST(CorpusWorkload, StaggeredCohortsBothMakeProgress) {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/6,
                                /*request_rate_hz=*/3.0, /*bits=*/256});
  // Realtime joins mid-run against an established bulk backlog.
  day.at(10 * kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/3,
                                     /*request_rate_hz=*/3.0, /*bits=*/128});

  KmsHarness h(45, std::move(day), KeyManagementService::Config());
  h.runner.run(30 * kSecond);

  const auto& rt = h.kms.class_stats(QosClass::kRealtime);
  const auto& bulk = h.kms.class_stats(QosClass::kBulk);
  EXPECT_GT(rt.granted, 50u);
  EXPECT_GT(bulk.granted, 50u) << "fair share: bulk is not starved";

  TimelineExpect expect(h.runner);
  expect.class_never_shed("kms_realtime")
      .class_never_shed("kms_bulk")
      .class_queue_at_most_by("kms_realtime", 3, 29 * kSecond);
  QKD_EXPECT_TIMELINE(expect);
  EXPECT_EQ(h.fleet.stats().claims_matched, h.fleet.stats().granted);
}

TEST(CorpusWorkload, DepartureMidDroughtDrainsTheBacklogAsDeparted) {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/10,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(10 * kSecond, StartEavesdrop{6, 1.0});  // drought: bulk backlogs
  day.at(20 * kSecond, ClientDeparture{6, 7, /*qos=*/2, /*count=*/10});
  day.at(30 * kSecond, StopEavesdrop{6});

  KmsHarness h(46, std::move(day), drought_config());
  h.runner.run(45 * kSecond);

  EXPECT_EQ(h.fleet.active_clients(), 0u);
  const auto& bulk = h.kms.class_stats(QosClass::kBulk);
  EXPECT_GT(bulk.departed + bulk.shed, 0u)
      << "the drought backlog must be drained, not leaked";
  EXPECT_EQ(h.kms.queue_depth(QosClass::kBulk), 0u);

  TimelineExpect expect(h.runner);
  expect.class_queue_at_most_by("kms_bulk", 0, 35 * kSecond);
  QKD_EXPECT_TIMELINE(expect);
}

}  // namespace
}  // namespace qkd::kms
