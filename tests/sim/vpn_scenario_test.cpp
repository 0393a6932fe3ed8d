// The VPN stack on the event timeline: IKE rekey timers, SA rollover and
// supply-replenished wakeups all run as scheduled deadline events — the
// tests never call VpnLinkSimulation::advance() or tick anything by hand.
#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"
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

SpdEntry protect_policy(double lifetime_s = 20.0) {
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

TEST(VpnScenario, TunnelRunsOnScheduledDeadlinesWithEngineFeed) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 3);
  vpn.install_mirrored_policy(protect_policy(/*lifetime_s=*/20.0));
  // Slowed trigger: ~4.2 s Qframes, ~300 net bits each — the same supply
  // economics at a quarter of the simulated pulses (wall time is
  // proportional to pulses, and this test's job is the deadline wiring,
  // not throughput).
  qkd::proto::QkdLinkConfig feed;
  feed.link.pulse_rate_hz = 0.25e6;
  feed.auth_replenish_bits = 64;
  vpn.enable_engine_feed(feed, 3);
  vpn.start();

  Scenario script;
  // Let the feed distill past a Qblock per lane, then run three bursts
  // across two SA lifetimes so rollover must happen mid-traffic.
  script.at(30 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(50 * kSecond, TrafficBurst{0, 5.0, 2.0})
      .at(70 * kSecond, TrafficBurst{0, 5.0, 2.0});

  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  runner.set_traffic_source(red_packet);
  runner.run(80 * kSecond);

  // Thirty packets crossed the tunnel.
  EXPECT_EQ(vpn.a().stats().esp_sent, 30u);
  EXPECT_EQ(vpn.b().stats().delivered, 30u);

  // The 20 s SA lifetime forced rollover between bursts, driven purely by
  // the next_deadline() wakeups the runner scheduled.
  EXPECT_GE(vpn.a().stats().sa_rollovers, 1u);
  EXPECT_GE(vpn.a().ike().stats().phase2_completed, 2u);

  // The scheduled batch completions really delivered quantum material and
  // the rekeys really consumed it (hybrid grants drain the pool down, so
  // assert on flow, not residue); the recorder saw the SA state.
  EXPECT_GT(vpn.a().key_pool().stats().bits_deposited, 0u);
  EXPECT_GT(vpn.a().ike().stats().qblocks_consumed, 0u);
  const auto& points = runner.recorder().points();
  ASSERT_GE(points.size(), 80u);
  EXPECT_GT(points.back().find("gw0_ike_phase2_completed").value_or(0.0), 0.0);
  const auto sa_up = runner.recorder().first_time([](const TimelinePoint& p) {
    return p.find("gw0_sas_installed").value_or(0.0) > 0.0;
  });
  ASSERT_TRUE(sa_up.has_value());
  EXPECT_GT(*sa_up, 30 * kSecond - kSecond)
      << "no SA before the first burst asked for one";
}

TEST(VpnScenario, EveOnTheFeedStarvesIkeUntilSheLeaves) {
  // The Sec. 7 DoS on the timeline: Eve's intercept-resend suppresses
  // distillation (every batch aborts on the QBER alarm), OTP rekey requests
  // starve, and her departure replenishes the pools — the replenish wakeup
  // revives the stalled negotiation with no polling loop in sight.
  // An OTP offer earmarks 3 * qblocks_per_rekey Qblocks from one lane, so
  // the tunnel needs ~6 Qblocks of total pool before it can even offer;
  // put the low-water mark exactly there so the replenish crossing is the
  // "enough to negotiate again" signal.
  VpnLinkSimulation::Params params;
  params.supply_low_water_bits = 6 * keystore::KeySupply::kQblockBits;
  VpnLinkSimulation vpn(params, 9);
  SpdEntry policy = protect_policy(/*lifetime_s=*/600.0);
  policy.cipher = CipherAlgo::kOneTimePad;
  policy.qkd_mode = QkdMode::kOtp;
  policy.qblocks_per_rekey = 1;
  vpn.install_mirrored_policy(policy);
  // ~300 net bits per 1.05 s batch; extra prepositioned auth pad keeps the
  // control channel authenticated through Eve's long all-abort stretch.
  qkd::proto::QkdLinkConfig feed;
  feed.auth_replenish_bits = 64;
  feed.preposition_extra_bits = 1 << 15;
  vpn.enable_engine_feed(feed, 9);
  vpn.start();

  Scenario script;
  script.at(kSecond, StartEavesdrop{0, 1.0})  // suppress from the start
      .at(6 * kSecond, TrafficBurst{0, 1.0, 1.0})  // OTP wants key: starves
      .at(10 * kSecond, StopEavesdrop{0});    // distillation resumes

  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  runner.set_traffic_source(red_packet);
  runner.run(45 * kSecond);

  // While Eve intercepted, no batch was accepted and the negotiation could
  // not buy its Qblocks.
  const auto& totals = vpn.key_service()->session(0).totals();
  EXPECT_GT(totals.aborted_qber(), 0u);
  EXPECT_GT(vpn.a().ike().stats().supply_exhausted_events, 0u);

  // After she left, the feed refilled the mirrored pools and the stalled
  // tunnel came up; the queued packet was finally delivered.
  EXPECT_GE(vpn.a().ike().stats().phase2_completed, 1u);
  EXPECT_EQ(vpn.b().stats().delivered, 1u);
  EXPECT_GT(vpn.a().stats().supply_replenished, 0u);

  // Timeline shows the starvation window: no SA while Eve held the link.
  const auto sa_up = runner.recorder().first_time([](const TimelinePoint& p) {
    return p.find("gw0_sas_installed").value_or(0.0) > 0.0;
  });
  ASSERT_TRUE(sa_up.has_value());
  EXPECT_GT(*sa_up, 10 * kSecond) << "no SA while Eve held the link";
}

TEST(VpnScenario, TrafficBurstWithoutSourceThrows) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 1);
  vpn.install_mirrored_policy(protect_policy());
  QKD_SEEDED_RNG(rng, 1);
  vpn.deposit_key_material(rng.next_bits(16 * 1024));
  vpn.start();
  Scenario script;
  script.at(kSecond, TrafficBurst{0, 1.0, 1.0});
  ScenarioRunner runner(std::move(script));
  runner.attach_vpn(vpn);
  EXPECT_THROW(runner.run(2 * kSecond), std::logic_error);
}

}  // namespace
}  // namespace qkd::sim
