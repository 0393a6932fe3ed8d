// Engine-fed VPN tests: a real QkdLinkSession (through the LinkKeyService)
// drives both gateways' key pools instead of hand-mirrored deposits,
// making the Section 7 "IKE starves when Eve suppresses distillation"
// scenario runnable end to end.
#include <gtest/gtest.h>

#include "src/ipsec/vpn_sim.hpp"

namespace qkd::ipsec {
namespace {

SpdEntry protect_policy(double lifetime_s = 60.0) {
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

IpPacket red_packet(int tag = 0) {
  IpPacket packet;
  packet.src = parse_ipv4("10.1.0.5");
  packet.dst = parse_ipv4("10.2.0.7");
  packet.payload = Bytes{'q', 'k', static_cast<std::uint8_t>(tag)};
  return packet;
}

/// Engine operating point for the feed: megaslot frames at a slowed
/// trigger so one batch covers ~4.2 s of simulated time (few batches per
/// test), yielding ~300 net bits each — a supply rate comfortably above
/// one 1024-bit Qblock per rekey lifetime.
qkd::proto::QkdLinkConfig feed_config() {
  qkd::proto::QkdLinkConfig config;
  config.frame_slots = 1 << 20;
  config.link.pulse_rate_hz = 0.25e6;
  return config;
}

TEST(EngineFeed, FillsBothPoolsWithIdenticalDistilledBits) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 21);
  vpn.enable_engine_feed(feed_config(), /*seed=*/21);
  vpn.advance(13.0);  // ~3 engine batches

  ASSERT_NE(vpn.key_service(), nullptr);
  EXPECT_GT(vpn.key_service()->session(0).totals().accepted_batches, 0u);
  const auto& a_stats = vpn.a().key_pool().stats();
  const auto& b_stats = vpn.b().key_pool().stats();
  EXPECT_GT(a_stats.bits_deposited, 0u);
  EXPECT_EQ(a_stats.bits_deposited, b_stats.bits_deposited);
  EXPECT_EQ(vpn.a().key_pool().available_bits(),
            vpn.b().key_pool().available_bits());
  // The producer delivers to the attached gateway sinks; its own supply
  // stays idle (no hand-mirrored drain/deposit loop anywhere).
  EXPECT_EQ(vpn.key_service()->supply(0).available_bits(), 0u);
  // Both gateways hold bit-identical streams: withdrawing through the
  // supply interface yields the same bits — and, because both pools see
  // an identical call sequence here, the same key_ids.
  const auto from_a = vpn.a().key_supply().request_bits(256, "test");
  const auto from_b = vpn.b().key_supply().request_bits(256, "test");
  ASSERT_TRUE(from_a && from_b);
  EXPECT_TRUE(from_a->bits == from_b->bits);
  EXPECT_EQ(from_a->key_id, from_b->key_id);
}

TEST(EngineFeed, TunnelNegotiatesFromEngineDistilledQblocks) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 22);
  vpn.install_mirrored_policy(protect_policy());
  vpn.enable_engine_feed(feed_config(), /*seed=*/22);
  vpn.advance(18.0);  // distill past one full Qblock before IKE starts
  ASSERT_GT(vpn.a().key_pool().available_bits(), 1024u);

  vpn.start();
  vpn.a().submit_plaintext(red_packet(1), vpn.clock().now());
  vpn.advance(1.0);
  const auto delivered = vpn.b().drain_delivered();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], red_packet(1));
  // The keys protecting that packet were withdrawn from engine output, not
  // a hand-mirrored deposit.
  EXPECT_GE(vpn.a().ike().stats().qblocks_consumed, 1u);
  EXPECT_GE(vpn.a().key_pool().stats().qblocks_withdrawn, 1u);
  EXPECT_EQ(vpn.b().ike().stats().degraded_negotiations, 0u);
}

TEST(EngineFeed, EveSuppressingDistillationStarvesIkeRekey) {
  // Sec. 7 end to end: Eve cannot read traffic, but by attacking the
  // *quantum* channel she stops the key supply; SA rekeys then find the
  // pools dry and negotiate degraded (no quantum material) until she
  // relents and distillation refills the pools.
  VpnLinkSimulation::Params params;
  // The feed supplies ~300 bits per accepted batch, so a 512-bit low-water
  // mark makes the starvation episode observable through supply events.
  params.supply_low_water_bits = 512;
  VpnLinkSimulation vpn(params, 23);
  vpn.install_mirrored_policy(protect_policy(/*lifetime_s=*/20.0));
  vpn.enable_engine_feed(feed_config(), /*seed=*/23);
  vpn.advance(22.0);  // ~5 engine batches: comfortably past one Qblock
  ASSERT_GT(vpn.a().key_pool().available_bits(), 1024u);
  vpn.start();

  // Healthy phase: tunnel up on quantum keys.
  vpn.a().submit_plaintext(red_packet(0), vpn.clock().now());
  vpn.advance(1.0);
  ASSERT_EQ(vpn.b().drain_delivered().size(), 1u);
  const auto healthy_qblocks = vpn.a().ike().stats().qblocks_consumed;
  EXPECT_GE(healthy_qblocks, 1u);
  EXPECT_EQ(vpn.a().ike().stats().degraded_negotiations, 0u);

  // Eve on the quantum channel: every batch trips the QBER alarm.
  vpn.set_feed_attack(
      std::make_unique<qkd::optics::InterceptResendAttack>(1.0));
  const auto aborted_before =
      vpn.key_service()->session(0).totals().aborted_qber();
  // Ride out several rekey lifetimes with sporadic traffic so the SA keeps
  // renegotiating while no fresh key arrives.
  for (int i = 0; i < 16; ++i) {
    vpn.a().submit_plaintext(red_packet(i), vpn.clock().now());
    vpn.advance(6.0);
  }
  EXPECT_GT(vpn.key_service()->session(0).totals().aborted_qber(),
            aborted_before);
  EXPECT_LT(vpn.a().key_pool().available_bits(), 1024u);  // pools ran dry
  EXPECT_GT(vpn.a().ike().stats().degraded_negotiations, 0u);  // starved
  // Starvation arrived as supply events (low-water crossing on the rekey
  // that drained the pool), not as polling.
  EXPECT_GT(vpn.a().stats().supply_low_water, 0u);

  // Eve relents: distillation resumes and rekeys consume fresh Qblocks.
  vpn.set_feed_attack(nullptr);
  for (int i = 0; i < 8; ++i) {
    vpn.a().submit_plaintext(red_packet(100 + i), vpn.clock().now());
    vpn.advance(6.0);
  }
  EXPECT_GT(vpn.a().key_pool().stats().bits_deposited, 0u);
  EXPECT_GT(vpn.a().ike().stats().qblocks_consumed, healthy_qblocks);
  // The recovery crossed the low-water mark upward on both gateways.
  EXPECT_GT(vpn.a().stats().supply_replenished, 0u);
  // Through the whole starve/recover cycle the mirrored supplies consumed
  // identically and every negotiated key matched.
  EXPECT_EQ(vpn.a().key_pool().available_bits(),
            vpn.b().key_pool().available_bits());
  EXPECT_EQ(vpn.a().key_pool().stats().bits_deposited,
            vpn.b().key_pool().stats().bits_deposited);
  EXPECT_EQ(vpn.a().ike().stats().qblocks_consumed,
            vpn.b().ike().stats().qblocks_consumed);
  EXPECT_EQ(vpn.a().stats().auth_failures, 0u);
  EXPECT_EQ(vpn.b().stats().auth_failures, 0u);
}

}  // namespace
}  // namespace qkd::ipsec
