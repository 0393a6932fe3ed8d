// E20: the wire layer — framing codec and socket transport.
//
// The message-framing layer under Alice/Bob and the KMS: typed protocol
// packets behind an 8-byte versioned frame header. The table prints the
// encoded size of one representative instance of every packet type (the
// per-message wire cost the control-traffic accounting charges); the
// timing kernels measure codec throughput on the three size regimes that
// matter — header-dominated control packets, the sparse sift announcement,
// and the bulk Qframe feed — plus one-frame round-trip latency over the
// in-memory channel and a real localhost TCP socket, which move identical
// bytes by construction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/net/channel_transport.hpp"
#include "src/wire/etsi.hpp"
#include "src/wire/packets.hpp"
#include "src/wire/transport.hpp"

namespace {

using namespace qkd;
using namespace qkd::wire;

/// One plausible instance of each packet type, sized like the live
/// protocol sizes them (20-byte digests, ~1500-bit corrected strings,
/// 0.15 % detection density on a 2^20-slot Qframe).
template <typename Packet>
Packet representative();

template <> QframeFeed representative() {
  Rng rng(20);
  QframeFeed p;
  p.frame_id = 7;
  p.slots = 1 << 20;
  for (std::uint32_t i = 0; i < p.slots; i += 683)
    p.clicks.push_back(i);  // ~0.15 % click density
  p.bases = rng.next_bits(p.clicks.size());
  p.bits = rng.next_bits(p.clicks.size());
  return p;
}
template <> SiftAnnounce representative() {
  Rng rng(21);
  SiftAnnounce p;
  p.frame_id = 7;
  p.slots = 1 << 20;
  for (std::uint32_t i = 0; i < p.slots; i += 683)
    p.clicks.push_back(i);  // ~0.15 % click density
  p.bob_bases = rng.next_bits(p.clicks.size());
  return p;
}
template <> SiftDecision representative() {
  Rng rng(22);
  SiftDecision p;
  p.frame_id = 7;
  p.keep = rng.next_bits(1535);
  return p;
}
template <> SampleReveal representative() {
  Rng rng(23);
  SampleReveal p;
  p.frame_id = 7;
  p.bits = rng.next_bits(76);
  return p;
}
// A first Cascade pass at the operating point: 1,459 bits in 73 blocks of 20.
template <> ParityRequest representative() {
  ParityRequest p;
  for (std::uint32_t b = 0; b < 73; ++b)
    p.queries.push_back({1, 0xDEADBEEF, 20 * b, std::min(20 * b + 20, 1459u)});
  return p;
}
template <> ParityResponse representative() {
  Rng rng(29);
  return ParityResponse{rng.next_bits(73)};
}
template <> EcSummary representative() { return EcSummary{19, true}; }
template <> VerifyHash representative() {
  VerifyHash p;
  p.frame_id = 7;
  p.digest.assign(20, 0xAB);
  return p;
}
template <> PaParamsPacket representative() {
  Rng rng(24);
  PaParamsPacket p;
  p.n = 1459;
  p.m = 1100;
  p.modulus_exponents = {1459, 54, 0};
  p.multiplier = rng.next_bits(p.n);
  p.addend = rng.next_bits(p.m);
  return p;
}
template <> AbortPacket representative() { return AbortPacket{2}; }
template <> KeyDigest representative() {
  KeyDigest p;
  p.frame_id = 7;
  p.key_bits = 908;
  p.digest.assign(20, 0x5C);
  return p;
}
template <> KmsRegister representative() {
  KmsRegister m;
  m.name = "vpn-gw-7 (interactive)";
  m.src = 1;
  m.dst = 2;
  m.qos = 1;
  return m;
}
template <> KmsRegisterReply representative() { return KmsRegisterReply{17}; }
template <> KmsGetKey representative() {
  KmsGetKey m;
  m.client_id = 17;
  m.request_id = 901;
  m.bits = 256;
  return m;
}
template <> KmsGetKeyWithId representative() {
  KmsGetKeyWithId m;
  m.client_id = 18;
  m.request_id = 902;
  m.key_id = 0xFEEDF00DCAFEULL;
  return m;
}
template <> KmsStatus representative() { return KmsStatus{17}; }
template <> KmsBye representative() { return KmsBye{}; }
template <> KmsGrant representative() {
  Rng rng(25);
  KmsGrant m;
  m.request_id = 901;
  m.status = 0;
  m.key_id = 0xFEEDF00DCAFEULL;
  m.bits = rng.next_bits(256);
  return m;
}
template <> KmsKeyWithIdReply representative() {
  Rng rng(26);
  KmsKeyWithIdReply m;
  m.request_id = 902;
  m.ok = true;
  m.key_id = 0xFEEDF00DCAFEULL;
  m.bits = rng.next_bits(256);
  return m;
}
template <> KmsStatusReply representative() {
  return KmsStatusReply{10000, 9876, 17, 9800};
}
template <> KmsReject representative() { return KmsReject{903, 2}; }

template <typename Packet>
void size_row() {
  const Bytes framed = to_frame(representative<Packet>());
  qkd::bench::row("  0x%02X %-18s %10zu", static_cast<unsigned>(Packet::kType),
                  packet_type_name(Packet::kType), framed.size());
}

void print_tables() {
  qkd::bench::heading("E20", "wire framing codec and socket transport");

  qkd::bench::row("frame header: %zu bytes (magic 'QK', version %u, type, "
                  "u32 payload length); relay tag adds %u bits",
                  kHeaderBytes, static_cast<unsigned>(kWireVersion),
                  static_cast<unsigned>(relay_frame_overhead_bits() -
                                        8 * kHeaderBytes));
  qkd::bench::row("");
  qkd::bench::row("encoded size of one representative packet per type");
  qkd::bench::row("  %-23s %10s", "type", "bytes");
  size_row<QframeFeed>();
  size_row<SiftAnnounce>();
  size_row<SiftDecision>();
  size_row<SampleReveal>();
  size_row<ParityRequest>();
  size_row<ParityResponse>();
  size_row<EcSummary>();
  size_row<VerifyHash>();
  size_row<PaParamsPacket>();
  size_row<AbortPacket>();
  size_row<KeyDigest>();
  size_row<KmsRegister>();
  size_row<KmsRegisterReply>();
  size_row<KmsGetKey>();
  size_row<KmsGetKeyWithId>();
  size_row<KmsStatus>();
  size_row<KmsGrant>();
  size_row<KmsKeyWithIdReply>();
  size_row<KmsStatusReply>();
  size_row<KmsReject>();
  size_row<KmsBye>();
}

// ---- Codec throughput -----------------------------------------------------

/// Encode+strict-decode round trip for one packet; bytes processed is the
/// frame size, so items/s is frames and bytes/s is codec throughput.
template <typename Packet>
void bm_codec_round_trip(benchmark::State& state) {
  const Packet packet = representative<Packet>();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes framed = to_frame(packet);
    bytes += framed.size();
    auto decoded = decode_packet_bytes(framed);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

/// The ETSI flavor of the same round trip.
template <typename Message>
void bm_etsi_round_trip(benchmark::State& state) {
  const Message message = representative<Message>();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const Bytes framed = to_frame(message);
    bytes += framed.size();
    const auto frame = decode_frame(framed);
    auto decoded = decode_etsi(frame.value);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

BENCHMARK(bm_codec_round_trip<ParityRequest>)->Name("bm_codec_parity_request");
BENCHMARK(bm_codec_round_trip<SiftAnnounce>)->Name("bm_codec_sift_announce");
BENCHMARK(bm_codec_round_trip<PaParamsPacket>)->Name("bm_codec_pa_params");
BENCHMARK(bm_codec_round_trip<QframeFeed>)
    ->Name("bm_codec_qframe_feed")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_etsi_round_trip<KmsGetKey>)->Name("bm_codec_kms_get_key");
BENCHMARK(bm_etsi_round_trip<KmsGrant>)->Name("bm_codec_kms_grant");

// ---- Transport round trips ------------------------------------------------

/// One request frame out, one echoed frame back over the in-memory
/// channel: the tier-1 transport's floor for a control-packet exchange.
void bm_channel_round_trip(benchmark::State& state) {
  net::PublicChannel channel;
  net::ChannelTransport alice(channel, net::ChannelTransport::Side::kA);
  net::ChannelTransport bob(channel, net::ChannelTransport::Side::kB);
  const Bytes framed = to_frame(representative<ParityRequest>());
  std::size_t bytes = 0;
  for (auto _ : state) {
    alice.send_frame(framed);
    const auto request = bob.recv_frame();
    bob.send_frame(*request);
    const auto reply = alice.recv_frame();
    benchmark::DoNotOptimize(reply);
    bytes += 2 * framed.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(bm_channel_round_trip);

/// The same exchange over a real localhost TCP socket, echo thread on the
/// far side: per-frame latency including the kernel's loopback path.
/// range(0) is the payload size, from control packet to bulk frame.
void bm_socket_round_trip(benchmark::State& state) {
  TcpListener listener(0);
  std::unique_ptr<TcpTransport> client;
  std::thread connector([&client, port = listener.port()] {
    client = tcp_connect(port);
  });
  auto server = listener.accept_transport();
  connector.join();
  if (client == nullptr || server == nullptr) {
    state.SkipWithError("localhost socket unavailable");
    return;
  }
  std::thread echo([&server] {
    while (auto frame = server->recv_frame()) server->send_frame(*frame);
  });

  const Bytes framed = encode_frame(
      PacketType::kQframeFeed,
      Bytes(static_cast<std::size_t>(state.range(0)), 0x5A));
  std::size_t bytes = 0;
  for (auto _ : state) {
    client->send_frame(framed);
    const auto reply = client->recv_frame();
    benchmark::DoNotOptimize(reply);
    bytes += 2 * framed.size();
  }
  client.reset();  // closes the socket; the echo thread's recv fails out
  echo.join();
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(bm_socket_round_trip)
    ->Arg(24)
    ->Arg(4 << 10)
    ->Arg(384 << 10)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  qkd::bench::stamp_context();
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
