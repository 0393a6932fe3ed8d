// The KMS's exported metric names, pinned. Alert rules and dashboards
// watch these by name (kms_interactive_granted_within_slo, kms_bulk_shed,
// kms_transports, ...), so a rename or a dropped row of the counter table
// must fail here rather than leave a rule watching a metric that is gone.
#include "src/kms/kms.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::NodeKind;
using network::Topology;

Topology hot_star() {
  Topology topo;
  const NodeId relay = topo.add_node("relay", NodeKind::kTrustedRelay);
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e9;
  topo.add_link(relay, a, optics);
  topo.add_link(relay, b, optics);
  return topo;
}

TEST(KmsMetrics, ExportedNamesArePinned) {
  MeshSimulation mesh(hot_star(), 77);
  mesh.step(20.0);
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  KeyManagementService kms(mesh, scheduler);
  obs::MetricsRegistry registry;
  kms.bind_metrics(registry, "kms");

  const ClientId alice =
      kms.register_client({"alice", 1, 2, QosClass::kInteractive});
  kms.register_client({"bob", 2, 1, QosClass::kBulk});
  std::size_t granted = 0;
  for (int i = 0; i < 4; ++i)
    kms.get_key(alice, 256, [&granted](const Grant& grant) {
      if (grant.status == GrantStatus::kGranted) ++granted;
    });
  scheduler.run_for(kSecond);
  ASSERT_EQ(granted, 4u);

  std::vector<std::string> names;
  for (const obs::MetricSample& sample : registry.snapshot()) {
    if (sample.name.rfind("kms_", 0) == 0) names.push_back(sample.name);
    // The export reads the same cells as the accessors.
    if (sample.name == "kms_transports") {
      EXPECT_EQ(sample.value, static_cast<double>(kms.stats().transports));
    }
    if (sample.name == "kms_interactive_granted_within_slo") {
      EXPECT_EQ(sample.value,
                static_cast<double>(
                    kms.class_stats(QosClass::kInteractive).granted_within_slo));
    }
  }
  const std::vector<std::string> expected = {
      "kms_bits_reclaimed",
      "kms_bulk_bits_granted",
      "kms_bulk_departed",
      "kms_bulk_granted",
      "kms_bulk_granted_within_slo",
      "kms_bulk_p99_grant_latency_s",
      "kms_bulk_queue_depth",
      "kms_bulk_rejected_queue_full",
      "kms_bulk_requests",
      "kms_bulk_shed",
      "kms_claims_expired",
      "kms_claims_fulfilled",
      "kms_interactive_bits_granted",
      "kms_interactive_departed",
      "kms_interactive_granted",
      "kms_interactive_granted_within_slo",
      "kms_interactive_p99_grant_latency_s",
      "kms_interactive_queue_depth",
      "kms_interactive_rejected_queue_full",
      "kms_interactive_requests",
      "kms_interactive_shed",
      "kms_pair1_2_pool_bits",
      "kms_pair2_1_pool_bits",
      "kms_realtime_bits_granted",
      "kms_realtime_departed",
      "kms_realtime_granted",
      "kms_realtime_granted_within_slo",
      "kms_realtime_p99_grant_latency_s",
      "kms_realtime_queue_depth",
      "kms_realtime_rejected_queue_full",
      "kms_realtime_requests",
      "kms_realtime_shed",
      "kms_replenish_wakeups",
      "kms_service_rounds",
      "kms_shed_events",
      "kms_starved_rounds",
      "kms_transports",
  };
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace qkd::kms
