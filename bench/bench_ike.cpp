// E10/E11 (Sec. 7): the IPsec/IKE extensions under load.
//
// E10 — the key-consumption race: AES-reseed tunnels sip one Qblock per
// rekey; one-time-pad tunnels drink pad in proportion to traffic. Sweeping
// the rekey interval against a fixed QKD supply shows where each mode
// starves ("This is a race between the rate at which keying material is put
// into place and the rate at which it is consumed").
//
// E11 — the mismatched-bits failure: "all security associations that employ
// key bits derived from this corrupted information will fail to properly
// encrypt / decrypt traffic ... until the security association is renewed."
// Measures the blackout as a function of the SA lifetime.
//
// Timing kernels: a VPN round trip (one packet sealed by one gateway and
// opened by the other), and the AES-128-CBC that seals it, per kernel
// (`portable`, and `dispatched`: what CPUID picks, AES-NI where present)
// in bytes/s, over the padded inner packet of a 16-, 128- or 512-byte
// payload (keybench e2e draws payloads of 16-512 bytes).
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/crypto/aes.hpp"
#include "src/ipsec/vpn_sim.hpp"

namespace {

using namespace qkd::ipsec;

SpdEntry tunnel_policy(CipherAlgo cipher, QkdMode mode, double lifetime_s) {
  SpdEntry entry;
  entry.name = "tunnel";
  entry.selector.src_prefix = parse_ipv4("10.1.0.0");
  entry.selector.src_mask = 0xffff0000;
  entry.selector.dst_prefix = parse_ipv4("10.2.0.0");
  entry.selector.dst_mask = 0xffff0000;
  entry.action = PolicyAction::kProtect;
  entry.cipher = cipher;
  entry.qkd_mode = mode;
  // An OTP tunnel drinks a Qblock per ~1 KB of traffic; negotiating one
  // block at a time would thrash IKE, so pad SAs request bigger withdrawals.
  entry.qblocks_per_rekey = mode == QkdMode::kOtp ? 16 : 1;
  entry.lifetime_seconds = lifetime_s;
  return entry;
}

IpPacket traffic_packet(int tag) {
  IpPacket packet;
  packet.src = parse_ipv4("10.1.0.5");
  packet.dst = parse_ipv4("10.2.0.9");
  packet.payload.assign(100, static_cast<std::uint8_t>(tag));
  return packet;
}

/// Runs a tunnel for `minutes` with a steady key supply and traffic load;
/// returns (delivered packets, starvation events).
struct RaceOutcome {
  std::uint64_t delivered;
  std::uint64_t starved;
  std::uint64_t rollovers;
};

RaceOutcome run_race(CipherAlgo cipher, QkdMode mode, double rekey_s,
                     double supply_bps, int packets_per_second) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 77);
  vpn.install_mirrored_policy(tunnel_policy(cipher, mode, rekey_s));
  qkd::Rng key_rng(5);
  vpn.deposit_key_material(key_rng.next_bits(8192));  // prime the pools
  vpn.start();
  const double total_s = 120.0;
  for (double t = 0.0; t < total_s; t += 1.0) {
    vpn.deposit_key_material(
        key_rng.next_bits(static_cast<std::size_t>(supply_bps)));
    for (int i = 0; i < packets_per_second; ++i)
      vpn.a().submit_plaintext(traffic_packet(i), vpn.clock().now());
    vpn.advance(1.0);
  }
  return RaceOutcome{vpn.b().stats().delivered,
                     vpn.a().stats().otp_exhausted +
                         vpn.a().ike().stats().failed_otp_negotiations,
                     vpn.a().stats().sa_rollovers};
}

void print_race_table() {
  qkd::bench::heading("E10", "Sec. 2/7: the key-consumption race");
  qkd::bench::row("120 s run, 5 packets/s of 100-byte traffic, QKD supply "
                  "sweep:");
  qkd::bench::row("%12s %10s | %10s %8s | %10s %8s", "supply b/s",
                  "rekey (s)", "AES deliv", "stalls", "OTP deliv", "stalls");
  for (double supply : {200.0, 1000.0, 5000.0}) {
    for (double rekey : {10.0, 60.0}) {
      const RaceOutcome aes =
          run_race(CipherAlgo::kAes128, QkdMode::kHybrid, rekey, supply, 5);
      const RaceOutcome otp =
          run_race(CipherAlgo::kOneTimePad, QkdMode::kOtp, rekey, supply, 5);
      qkd::bench::row("%12.0f %10.0f | %10lu %8lu | %10lu %8lu", supply,
                      rekey, static_cast<unsigned long>(aes.delivered),
                      static_cast<unsigned long>(aes.starved),
                      static_cast<unsigned long>(otp.delivered),
                      static_cast<unsigned long>(otp.starved));
    }
  }
  qkd::bench::row("(AES mode runs on ~17-100 bit/s of key; the one-time pad "
                  "needs supply >= ~3x traffic — ~4,800 bit/s of payload "
                  "plus keymat and the unused reverse-direction pad — the "
                  "Sec. 2 argument for using QKD bits as AES seeds)");
}

void print_mismatch_table() {
  qkd::bench::heading("E11", "Sec. 7: mismatched Qblocks -> blackout until rollover");
  qkd::bench::row("%14s %16s %18s", "SA lifetime", "blackout (s)",
                  "packets lost");
  for (double lifetime : {5.0, 15.0, 30.0, 60.0}) {
    VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 99);
    vpn.install_mirrored_policy(
        tunnel_policy(CipherAlgo::kAes128, QkdMode::kHybrid, lifetime));
    qkd::Rng rng(9);
    // First Qblock corrupted on one side; the rest clean.
    vpn.deposit_key_material(rng.next_bits(1024), /*corrupt_b=*/true);
    vpn.deposit_key_material(rng.next_bits(64 * 1024));
    vpn.start();
    double healed_at = -1.0;
    std::uint64_t lost = 0;
    std::uint64_t delivered_before = 0;
    for (double t = 0.0; t < lifetime * 2 + 20 && healed_at < 0; t += 1.0) {
      vpn.a().submit_plaintext(traffic_packet(1), vpn.clock().now());
      vpn.advance(1.0);
      if (vpn.b().stats().delivered > delivered_before) {
        healed_at = t;
      } else {
        ++lost;
      }
      delivered_before = vpn.b().stats().delivered;
    }
    qkd::bench::row("%14.0f %16.1f %18lu", lifetime, healed_at,
                    static_cast<unsigned long>(lost));
  }
  qkd::bench::row("(IKE itself never notices — recovery waits for the SA "
                  "lifetime; \"some pressure for adjusting the QKD error "
                  "correction protocols towards a low residual bit error "
                  "rate\")");
}

void bm_vpn_roundtrip(benchmark::State& state) {
  VpnLinkSimulation vpn(VpnLinkSimulation::Params{}, 3);
  vpn.install_mirrored_policy(
      tunnel_policy(CipherAlgo::kAes128, QkdMode::kHybrid, 3600.0));
  qkd::Rng rng(3);
  vpn.deposit_key_material(rng.next_bits(64 * 1024));
  vpn.start();
  vpn.a().submit_plaintext(traffic_packet(0), vpn.clock().now());
  vpn.advance(1.0);
  int tag = 0;
  for (auto _ : state) {
    vpn.a().submit_plaintext(traffic_packet(tag++), vpn.clock().now());
    vpn.pump();
    benchmark::DoNotOptimize(vpn.b().drain_delivered());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_vpn_roundtrip);

/// AES-128-CBC over the ESP body of a `state.range(0)`-byte payload: the
/// 20-byte inner header, the payload and the 2-byte trailer, padded to
/// whole blocks. `portable` names the kernel; otherwise the public API's
/// CPUID choice runs.
void bm_aes128_cbc(benchmark::State& state, bool encrypt, bool portable) {
  namespace crypto = qkd::crypto;
  const std::size_t body =
      (20 + static_cast<std::size_t>(state.range(0)) + 2 + 15) / 16 * 16;
  qkd::Rng rng(11);
  const qkd::Bytes key = rng.next_bits(128).to_bytes();
  const crypto::Aes aes(key);
  crypto::Aes::Block iv{};
  qkd::Bytes data = rng.next_bits(8 * body).to_bytes();
  for (auto _ : state) {
    if (encrypt && portable) {
      data = crypto::detail::aes_cbc_encrypt(
          crypto::detail::aes_encrypt_portable, aes.schedule(), iv, data);
    } else if (encrypt) {
      data = crypto::aes_cbc_encrypt(aes, iv, data);
    } else if (portable) {
      data = crypto::detail::aes_cbc_decrypt(
          crypto::detail::aes_decrypt_portable, aes.schedule(), iv, data);
    } else {
      data = crypto::aes_cbc_decrypt(aes, iv, data);
    }
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * body));
}
BENCHMARK_CAPTURE(bm_aes128_cbc, encrypt_portable, true, true)
    ->Arg(16)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(bm_aes128_cbc, encrypt_dispatched, true, false)
    ->Arg(16)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(bm_aes128_cbc, decrypt_portable, false, true)
    ->Arg(16)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(bm_aes128_cbc, decrypt_dispatched, false, false)
    ->Arg(16)->Arg(128)->Arg(512);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_race_table();
  print_mismatch_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
