// Scenario corpus — the health engine watching scripted days. The
// eavesdrop story (the paper's QBER-alarm-as-detector premise) must show
// up as a deterministic pending -> firing -> resolved arc through
// AlertExpect, the drought rule must track the purged pool, and a clean
// day must stay silent: an alert that fires without an incident is as
// much a bug as one that misses it.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/kms/wire_service.hpp"
#include "src/net/channel_transport.hpp"
#include "src/obs/health/expect.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::Topology;
using namespace qkd::sim;
namespace health = qkd::obs::health;

/// relay_ring(6) with hot optics: endpoints are nodes 6 (alice) and
/// 7 (bob), the tail link is link 6 — same ring the workload corpus runs.
MeshSimulation hot_ring(std::uint64_t seed) {
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e8;
  return MeshSimulation(std::move(topo), seed);
}

/// The workload harness plus the health layer: the runner's registry fed
/// by mesh and KMS, read by both the recorder and the built-in rule pack,
/// engine evaluations every sim second on the scenario timeline.
struct HealthHarness {
  MeshSimulation mesh;
  ScenarioRunner runner;
  KeyManagementService kms;
  KmsClientFleet fleet;
  health::AlertEngine alerts;

  HealthHarness(std::uint64_t seed, Scenario scenario,
                KeyManagementService::Config kms_config)
      : mesh(hot_ring(seed)),
        runner(std::move(scenario)),
        kms(mesh, runner.scheduler(), kms_config),
        fleet(kms),
        alerts(runner.registry()) {
    runner.attach_mesh(mesh);
    runner.attach_client_driver(fleet);
    kms.bind_metrics(runner.registry(), "kms");
    // The tail link is Eve's target; link 0 is across the ring and the
    // reroute keeps it clean — its rule is the negative control.
    alerts.add_rule(health::rules::qber_spike("mesh_link6_qber_percent", "6"));
    alerts.add_rule(health::rules::qber_spike("mesh_link0_qber_percent", "0"));
    alerts.add_rule(
        health::rules::pool_drought("mesh_link6_pool_bits", "6->7"));
    alerts.add_rule(health::rules::shed_surge("kms_bulk_shed", "bulk",
                                              /*per_second=*/0.5));
    runner.attach_alerts(alerts, kSecond);
  }
};

KeyManagementService::Config drought_config() {
  KeyManagementService::Config config;
  config.shed_after_starved_rounds = 2;
  config.retry_backoff = 500 * kMillisecond;
  return config;
}

Scenario loaded_day() {
  Scenario day;
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/0, /*count=*/4,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/1, /*count=*/6,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  day.at(kSecond, ClientArrival{6, 7, /*qos=*/2, /*count=*/8,
                                /*request_rate_hz=*/2.0, /*bits=*/128});
  return day;
}

TEST(ScenarioHealth, EavesdropRaisesTheAlarmsThenResolvesThem) {
  Scenario day = loaded_day();
  // Eve camps on the tail link for twenty seconds mid-run.
  day.at(15 * kSecond, StartEavesdrop{6, 1.0});
  day.at(35 * kSecond, StopEavesdrop{6});

  HealthHarness h(47, std::move(day), drought_config());
  h.runner.run(60 * kSecond);

  // The QBER rule is the eavesdropping detector: intercept-resend drives
  // the link gauge to ~25% within one evaluation of Eve's arrival, the 2s
  // debounce holds, and her departure resolves it.
  health::AlertExpect expect(h.alerts);
  expect.expect_alert("qber_spike:6")
      .pending_by(17 * kSecond)
      .firing_between(16 * kSecond, 22 * kSecond)
      .resolved_by(40 * kSecond)
      .full_lifecycle()
      .state_now(health::AlertState::kResolved);
  // The alarm purges the tail pool; the drought rule follows it down and
  // recovers once distillation restarts.
  expect.expect_alert("pool_drought:6->7")
      .firing_between(16 * kSecond, 30 * kSecond)
      .resolved_by(55 * kSecond)
      .state_now(health::AlertState::kResolved);
  // Sustained starvation sheds the bulk class: the surge rule sees the
  // shed counter climb.
  expect.expect_alert("shed_surge:bulk").fired();
  // The mesh reroutes around Eve; the far side of the ring never alarms.
  expect.expect_alert("qber_spike:0").never_fires();
  QKD_EXPECT_ALERTS(expect);

  // The transitions also land on the shared timeline as annotations (the
  // attach_alerts bridge), next to the scenario's own marks.
  TimelineExpect timeline(h.runner);
  timeline.noted("alert qber_spike:6: inactive -> pending")
      .noted("alert qber_spike:6: firing -> resolved")
      .noted("alert pool_drought:6->7");
  QKD_EXPECT_TIMELINE(timeline);

  // Alerts and timeline read one registry: at the instant the QBER rule
  // went pending, the sample the recorder took holds the value the engine
  // saw.
  const auto pending = std::find_if(
      h.alerts.transitions().begin(), h.alerts.transitions().end(),
      [](const health::Transition& t) {
        return t.rule == "qber_spike:6" && t.to == health::AlertState::kPending;
      });
  ASSERT_NE(pending, h.alerts.transitions().end());
  EXPECT_GT(pending->value, 11.0);
  const auto& points = h.runner.recorder().points();
  const auto at = std::find_if(
      points.begin(), points.end(),
      [&pending](const TimelinePoint& p) { return p.t == pending->at; });
  ASSERT_NE(at, points.end()) << "no sample at the evaluation instant";
  EXPECT_EQ(at->find("mesh_link6_qber_percent"), pending->value);

  // And the assembled incidents carry the same story for the report path.
  bool saw_qber_incident = false;
  for (const health::Incident& incident : h.alerts.incidents()) {
    if (incident.rule != "qber_spike:6") continue;
    saw_qber_incident = true;
    EXPECT_TRUE(incident.resolved());
    EXPECT_GT(incident.peak_value, 11.0)
        << "peak QBER above the protocol abort threshold";
  }
  EXPECT_TRUE(saw_qber_incident);
}

TEST(ScenarioHealth, CleanDayRaisesNoAlarms) {
  HealthHarness h(48, loaded_day(), KeyManagementService::Config());
  h.runner.run(30 * kSecond);

  health::AlertExpect expect(h.alerts);
  expect.expect_alert("qber_spike:6").never_fires();
  expect.expect_alert("qber_spike:0").never_fires();
  expect.expect_alert("shed_surge:bulk").never_fires();
  QKD_EXPECT_ALERTS(expect);
  EXPECT_EQ(h.alerts.state("pool_drought:6->7"),
            health::AlertState::kInactive)
      << "healthy supply never lets the pool sit under the floor";
  EXPECT_TRUE(h.alerts.incidents().empty());

  // Determinism: the engine ticked once per second plus the horizon tick.
  EXPECT_EQ(h.alerts.stats().evaluations, 30u);
  EXPECT_EQ(h.alerts.last_evaluated(), 30 * kSecond);
}

TEST(ScenarioHealth, TheRulePackWatchesOnlyMetricsThatExist) {
  // Every rule factory of the pack, each on the metric the stack exports
  // for it, over the eavesdrop day: a rule whose metric is never emitted
  // could never fire, and the engine's alerts_unbound_rules gauge would
  // count it.
  Scenario day = loaded_day();
  day.at(15 * kSecond, StartEavesdrop{6, 1.0});
  day.at(35 * kSecond, StopEavesdrop{6});
  HealthHarness h(49, std::move(day), drought_config());
  net::PublicChannel channel;
  net::ChannelTransport io(channel, net::ChannelTransport::Side::kA);
  KmsWireClient wire_client(io);
  wire_client.bind_metrics(h.runner.registry(), "wire");
  h.alerts.add_rule(health::rules::grant_slo_burn(
      "kms_interactive_granted_within_slo", "kms_interactive_granted",
      "interactive"));
  h.alerts.add_rule(health::rules::retransmission_storm("wire_retransmits"));
  h.alerts.add_rule(health::rules::distillation_stalled("kms_transports"));
  h.alerts.bind_alerts(h.runner.registry());
  ASSERT_EQ(h.alerts.rule_count(), 7u);

  // Read the gauge between evaluations (each value stands until the next
  // one), so every evaluation's count is seen.
  double most_unbound = 0.0;
  std::size_t reads = 0;
  h.runner.scheduler().every(
      kSecond / 2, kSecond, [&h, &most_unbound, &reads](SimTime) {
        for (const qkd::obs::MetricSample& sample :
             h.runner.registry().snapshot()) {
          if (sample.name != "alerts_unbound_rules") continue;
          most_unbound = std::max(most_unbound, sample.value);
          ++reads;
        }
      });
  h.runner.run(60 * kSecond);
  EXPECT_GE(reads, 59u);
  EXPECT_EQ(most_unbound, 0.0);
  EXPECT_EQ(h.alerts.unbound_rules(), 0u);
  EXPECT_GE(h.alerts.stats().evaluations, 60u);
}

TEST(ScenarioHealth, AttachAlertsRejectsANonPositiveInterval) {
  Scenario day;
  ScenarioRunner runner(std::move(day));
  qkd::obs::MetricsRegistry registry;
  health::AlertEngine alerts(registry);
  EXPECT_THROW(runner.attach_alerts(alerts, 0), std::invalid_argument);
}

}  // namespace
}  // namespace qkd::kms
