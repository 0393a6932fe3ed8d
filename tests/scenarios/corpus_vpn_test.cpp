// Scenario corpus — VPN stories. A burst spanning an SA rollover, Eve on
// the quantum feed across a rekey window, and a feed outage bridged by the
// reserve, all on the scheduled-deadline timeline (no hand-ticking).
#include <gtest/gtest.h>

#include "src/sim/expect.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::sim {
namespace {

using ipsec::CipherAlgo;
using ipsec::IpPacket;
using ipsec::PolicyAction;
using ipsec::QkdMode;
using ipsec::SpdEntry;
using ipsec::VpnLinkSimulation;
using ipsec::parse_ipv4;

SpdEntry protect_policy(double lifetime_s) {
  SpdEntry entry;
  entry.name = "vpn";
  entry.selector.src_prefix = parse_ipv4("10.1.0.0");
  entry.selector.src_mask = 0xffff0000;
  entry.selector.dst_prefix = parse_ipv4("10.2.0.0");
  entry.selector.dst_mask = 0xffff0000;
  entry.action = PolicyAction::kProtect;
  entry.cipher = CipherAlgo::kAes128;
  entry.qkd_mode = QkdMode::kHybrid;
  entry.qblocks_per_rekey = 1;
  entry.lifetime_seconds = lifetime_s;
  return entry;
}

IpPacket red_packet(std::uint64_t seq) {
  IpPacket packet;
  packet.src = parse_ipv4("10.1.0.5");
  packet.dst = parse_ipv4("10.2.0.7");
  packet.payload = Bytes{'p', 'k', 't', static_cast<std::uint8_t>(seq)};
  return packet;
}

/// The slowed engine feed of the VPN scenario tests: ~4.2 s Qframes at a
/// quarter of the pulses (wall time tracks pulses; the corpus tests wiring
/// and recovery, not throughput).
VpnLinkSimulation make_vpn(double lifetime_s, std::uint64_t seed) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, seed);
  vpn.install_mirrored_policy(protect_policy(lifetime_s));
  qkd::proto::QkdLinkConfig feed;
  feed.link.pulse_rate_hz = 0.25e6;
  vpn.enable_engine_feed(feed, seed);
  vpn.start();
  return vpn;
}

TEST(CorpusVpn, ContinuousBurstAcrossSaRolloverLosesNothing) {
  VpnLinkSimulation vpn = make_vpn(/*lifetime_s=*/20.0, 51);

  Scenario script;
  // One 30-second burst straddling the 20 s SA lifetime: rollover happens
  // mid-stream and must not drop a packet.
  script.at(30 * kSecond, TrafficBurst{0, 5.0, 30.0});

  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  runner.set_traffic_source(red_packet);
  runner.run(75 * kSecond);

  EXPECT_EQ(vpn.a().stats().esp_sent, 150u);
  EXPECT_EQ(vpn.b().stats().delivered, 150u) << "rollover must be lossless";
  EXPECT_GE(vpn.a().stats().sa_rollovers, 1u);
  EXPECT_GE(vpn.a().ike().stats().phase2_completed, 2u);

  // The recorder saw an SA before any rollover could happen.
  const auto sa_up = runner.recorder().first_time(
      [](const TimelinePoint& p) {
        return p.find("gw0_sas_installed").value_or(0.0) > 0.0;
      });
  ASSERT_TRUE(sa_up.has_value());
  EXPECT_LE(*sa_up, 35 * kSecond);
}

TEST(CorpusVpn, EveOnTheFeedAcrossTheRekeyWindow) {
  VpnLinkSimulation vpn = make_vpn(/*lifetime_s=*/20.0, 52);

  Scenario script;
  // Bursts at 30/50/70 s as in the healthy baseline — but Eve holds the
  // quantum feed across the 50 s burst and the rekey the 20 s lifetime
  // forces inside (45, 55). Every batch she touches aborts on the QBER
  // alarm; the tunnel must ride through on reserve material and deliver
  // everything by the horizon.
  script.at(30 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(45 * kSecond, StartEavesdrop{0, 1.0})
      .at(50 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(55 * kSecond, StopEavesdrop{0})
      .at(70 * kSecond, TrafficBurst{0, 5.0, 2.0});

  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  runner.set_traffic_source(red_packet);
  runner.run(100 * kSecond);

  // Eve really suppressed distillation for a stretch...
  EXPECT_GT(vpn.key_service()->session(0).totals().aborted_qber(), 0u);
  // ...yet no packet was lost and rekeys still completed.
  EXPECT_EQ(vpn.a().stats().esp_sent, 30u);
  EXPECT_EQ(vpn.b().stats().delivered, 30u);
  EXPECT_GE(vpn.a().ike().stats().phase2_completed, 2u);

  TimelineExpect expect(runner);
  expect.noted("StartEavesdrop").noted("StopEavesdrop");
  QKD_EXPECT_TIMELINE(expect);
}

TEST(CorpusVpn, FeedOutageIsBridgedAndDistillationResumes) {
  VpnLinkSimulation vpn = make_vpn(/*lifetime_s=*/20.0, 53);

  Scenario script;
  // The feed's fiber goes dark for 20 s spanning a burst and a rekey; once
  // re-enabled, distillation resumes and everything queued flows.
  script.at(30 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(40 * kSecond, CutLink{0})
      .at(50 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(60 * kSecond, RestoreLink{0})
      .at(75 * kSecond, TrafficBurst{0, 5.0, 2.0});

  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  runner.set_traffic_source(red_packet);
  const std::uint64_t deposited_before_run =
      vpn.a().key_pool().stats().bits_deposited;
  runner.run(105 * kSecond);

  EXPECT_EQ(vpn.a().stats().esp_sent, 30u);
  EXPECT_EQ(vpn.b().stats().delivered, 30u) << "outage must be bridged";
  EXPECT_GT(vpn.a().key_pool().stats().bits_deposited, deposited_before_run)
      << "distillation resumed after the repair";
  EXPECT_GE(vpn.a().ike().stats().phase2_completed, 2u);
}

}  // namespace
}  // namespace qkd::sim
