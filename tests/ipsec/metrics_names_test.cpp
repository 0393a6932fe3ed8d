// The VPN gateway's exported metric names, pinned. Sec. 7 alert rules and
// the scenario timeline watch these by name (gw0_sas_installed,
// gw0_supply_bits, gw0_ike_phase2_timeouts, ...), so a rename or a dropped
// row of the export tables must fail here rather than leave a rule
// watching a metric that is gone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ipsec/vpn_sim.hpp"
#include "src/obs/metrics.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::ipsec {
namespace {

TEST(VpnMetrics, ExportedNamesArePinned) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 5);
  SpdEntry policy;
  policy.name = "vpn";
  policy.selector.src_prefix = parse_ipv4("10.1.0.0");
  policy.selector.src_mask = 0xffff0000;
  policy.selector.dst_prefix = parse_ipv4("10.2.0.0");
  policy.selector.dst_mask = 0xffff0000;
  policy.action = PolicyAction::kProtect;
  policy.qblocks_per_rekey = 1;
  vpn.install_mirrored_policy(policy);
  ::qkd::testing::SeededRng rng(5);
  vpn.deposit_key_material(rng.next_bits(64 * 1024));
  vpn.start();

  obs::MetricsRegistry registry;
  vpn.a().bind_metrics(registry, "gw0");

  IpPacket packet;
  packet.src = parse_ipv4("10.1.0.5");
  packet.dst = parse_ipv4("10.2.0.7");
  packet.payload = Bytes{1, 2, 3};
  vpn.a().submit_plaintext(packet, vpn.clock().now());
  vpn.advance(1.0);
  ASSERT_EQ(vpn.a().stats().esp_sent, 1u);

  std::vector<std::string> names;
  for (const obs::MetricSample& sample : registry.snapshot()) {
    names.push_back(sample.name);
    // The export reads the gateway's live state.
    if (sample.name == "gw0_esp_sent") {
      EXPECT_EQ(sample.value, 1.0);
    }
    if (sample.name == "gw0_ike_phase2_completed") {
      EXPECT_EQ(sample.value, static_cast<double>(
                                  vpn.a().ike().stats().phase2_completed));
    }
    if (sample.name == "gw0_sas_installed") {
      EXPECT_GT(sample.value, 0.0);
      EXPECT_EQ(sample.value, static_cast<double>(vpn.a().sad().size()));
    }
    if (sample.name == "gw0_supply_bits") {
      EXPECT_EQ(sample.value,
                static_cast<double>(vpn.a().key_supply().available_bits()));
    }
  }
  const std::vector<std::string> expected = {
      "gw0_auth_failures",
      "gw0_bypassed",
      "gw0_delivered",
      "gw0_discarded_policy",
      "gw0_dropped_no_policy",
      "gw0_dropped_queue_full",
      "gw0_esp_received",
      "gw0_esp_sent",
      "gw0_ike_degraded_negotiations",
      "gw0_ike_failed_otp_negotiations",
      "gw0_ike_phase1_completed",
      "gw0_ike_phase2_completed",
      "gw0_ike_phase2_initiated",
      "gw0_ike_phase2_responded",
      "gw0_ike_phase2_timeouts",
      "gw0_ike_qblocks_consumed",
      "gw0_ike_qblocks_reserved",
      "gw0_ike_reservations_released",
      "gw0_ike_retransmits",
      "gw0_ike_supply_exhausted_events",
      "gw0_otp_exhausted",
      "gw0_replay_drops",
      "gw0_sa_rollovers",
      "gw0_sas_installed",
      "gw0_supply_bits",
      "gw0_supply_exhausted",
      "gw0_supply_low_water",
      "gw0_supply_replenished",
      "gw0_unknown_spi",
  };
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace qkd::ipsec
