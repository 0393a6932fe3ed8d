// Integration tests across the whole system of Fig. 11: photons at the
// bottom, IP packets at the top.
#include <gtest/gtest.h>

#include "src/ipsec/vpn_sim.hpp"
#include "src/network/key_transport.hpp"
#include "src/optics/entangled.hpp"
#include "src/qkd/engine.hpp"
#include "src/qkd/privacy.hpp"
#include "src/qkd/sifting.hpp"

namespace {

using namespace qkd::ipsec;
using namespace qkd::proto;

SpdEntry protect_all(const char* name, CipherAlgo cipher, QkdMode mode) {
  SpdEntry entry;
  entry.name = name;
  entry.action = PolicyAction::kProtect;
  entry.cipher = cipher;
  entry.qkd_mode = mode;
  entry.lifetime_seconds = 30.0;
  return entry;
}

IpPacket make_packet(int tag) {
  IpPacket packet;
  packet.src = parse_ipv4("10.1.1.1");
  packet.dst = parse_ipv4("10.2.2.2");
  packet.payload.assign(64, static_cast<std::uint8_t>(tag));
  return packet;
}

TEST(FullStack, PhotonsToPackets) {
  // The complete Fig. 11 chain: a weak-coherent link distills key; the
  // distilled bits (identical on both ends by pipeline construction) are
  // deposited into the gateways' Qblock pools; IKE pulls Qblocks into ESP
  // keymat; user traffic crosses the tunnel.
  QkdLinkConfig qkd_config;
  qkd_config.frame_slots = 1 << 20;
  QkdLinkSession qkd(qkd_config, 1);

  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 2);
  vpn.install_mirrored_policy(
      protect_all("tunnel", CipherAlgo::kAes128, QkdMode::kHybrid));

  qkd::BitVector total_key;
  while (total_key.size() < 4096) {
    const BatchResult batch = qkd.run_batch();
    ASSERT_LT(qkd.totals().batches, 48u) << "link failed to distill";
    if (!batch.accepted) continue;
    total_key.append(batch.key);
    vpn.deposit_key_material(batch.key);
  }
  vpn.start();

  for (int i = 0; i < 10; ++i) {
    vpn.a().submit_plaintext(make_packet(i), vpn.clock().now());
    vpn.advance(0.5);
  }
  EXPECT_EQ(vpn.b().stats().delivered, 10u);
  EXPECT_EQ(vpn.b().stats().auth_failures, 0u);
  EXPECT_GE(vpn.a().ike().stats().qblocks_consumed, 1u);
}

TEST(FullStack, OtpTunnelRunsOnRealDistilledBits) {
  QkdLinkConfig qkd_config;
  qkd_config.frame_slots = 1 << 20;
  QkdLinkSession qkd(qkd_config, 3);

  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 4);
  SpdEntry policy = protect_all("otp", CipherAlgo::kOneTimePad, QkdMode::kOtp);
  policy.qblocks_per_rekey = 1;
  vpn.install_mirrored_policy(policy);

  // Distill enough for keymat + both pads (3 Qblocks per negotiation,
  // drawn from the initiator's lane, which holds half the deposits).
  qkd::BitVector pool;
  while (pool.size() < 10 * qkd::keystore::KeySupply::kQblockBits) {
    const BatchResult batch = qkd.run_batch();
    ASSERT_LT(qkd.totals().batches, 96u);
    if (batch.accepted) pool.append(batch.key);
  }
  vpn.deposit_key_material(pool);
  vpn.start();

  vpn.a().submit_plaintext(make_packet(1), vpn.clock().now());
  vpn.advance(1.0);
  const auto delivered = vpn.b().drain_delivered();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], make_packet(1));
}

TEST(FullStack, EavesdroppedLinkStarvesTheVpn) {
  // Eve sits on the quantum channel: batches abort, pools stop filling, and
  // (after the prepositioned material runs out) rekeys degrade. The VPN
  // never uses disturbed bits because no disturbed batch is ever accepted.
  QkdLinkConfig qkd_config;
  qkd_config.frame_slots = 1 << 20;
  QkdLinkSession qkd(qkd_config, 5);
  qkd::optics::InterceptResendAttack eve(1.0);

  std::size_t deposited = 0;
  for (int i = 0; i < 5; ++i) {
    const BatchResult batch = qkd.run_batch(&eve);
    EXPECT_FALSE(batch.accepted);
    deposited += batch.distilled_bits;
  }
  EXPECT_EQ(deposited, 0u);
  EXPECT_EQ(qkd.totals().aborted_qber(), 5u);
}

TEST(FullStack, EntangledFramesFlowThroughTheSameSifting) {
  // The Section 8 "next kind of link": entangled frames are drop-in
  // compatible with the protocol stack's sifting stage.
  qkd::optics::EntangledLink link(qkd::optics::EntangledParams{}, 6);
  const auto frame = link.run_frame(500000);
  const qkd::wire::SiftAnnounce announce = make_sift_announce(1, frame);
  const AliceSiftResult alice = alice_sift(frame, announce);
  const SiftOutcome bob =
      bob_apply_response(frame, announce, alice.decision);
  ASSERT_GT(alice.outcome.bits.size(), 100u);
  EXPECT_EQ(alice.outcome.bits.size(), bob.bits.size());
  const double qber =
      static_cast<double>(alice.outcome.bits.hamming_distance(bob.bits)) /
      static_cast<double>(alice.outcome.bits.size());
  EXPECT_LT(qber, 0.06);  // better than the weak-coherent link's 6 %
}

TEST(FullStack, EntangledErrorsCorrectAndDistill) {
  // Entangled sifted bits through Cascade + entropy (entangled accounting)
  // + privacy amplification: the full distillation path for link type #2.
  qkd::optics::EntangledLink link(qkd::optics::EntangledParams{}, 7);
  const auto frame = link.run_frame(1 << 20);
  const qkd::wire::SiftAnnounce announce = make_sift_announce(1, frame);
  const AliceSiftResult alice_sifted = alice_sift(frame, announce);
  SiftOutcome bob_sifted =
      bob_apply_response(frame, announce, alice_sifted.decision);

  qkd::BitVector alice_bits = alice_sifted.outcome.bits;
  qkd::BitVector bob_bits = bob_sifted.bits;
  LocalParityOracle oracle(alice_bits);
  const EcStats ec = classic_cascade_correct(bob_bits, oracle, 0.03);
  EXPECT_TRUE(ec.converged);
  EXPECT_EQ(bob_bits, alice_bits);

  EntropyInputs inputs;
  inputs.sifted_bits = alice_bits.size();
  inputs.error_bits = ec.corrections;
  inputs.transmitted_pulses = 1 << 20;
  inputs.disclosed_bits = oracle.disclosed();
  inputs.mean_photon_number = 0.05;  // pair probability plays mu's role
  inputs.link_kind = LinkKind::kEntangled;
  inputs.defense = DefenseFunction::kBennett;
  const EntropyEstimate entropy = estimate_entropy(inputs);
  ASSERT_GT(entropy.distillable_bits, 64.0);

  qkd::crypto::Drbg drbg(7u);
  const std::size_t m = static_cast<std::size_t>(entropy.distillable_bits);
  // Chunk like the engine does if needed (entangled batches are small).
  ASSERT_LE(alice_bits.size(), pa_max_block_bits());
  const qkd::wire::PaParamsPacket pa = make_pa_params(alice_bits.size(), m, drbg);
  EXPECT_EQ(privacy_amplify(alice_bits, pa), privacy_amplify(bob_bits, pa));
}

TEST(FullStack, MeshFedByEngineRates) {
  // Cross-validation: the mesh's analytic per-link rate against the real
  // engine, then a transport across a relay path using that budget.
  qkd::network::MeshSimulation mesh(qkd::network::Topology::relay_ring(4), 8);
  mesh.step(30.0);
  const auto result = mesh.transport_key(4, 5, 256);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.key.size(), 256u);
}

}  // namespace
