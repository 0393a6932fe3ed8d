// e2e: the paper's Fig. 11 path on one scheduler, single-threaded.
//
// Two engine-mode links (relay plus two endpoints, 10 km each, the paper's
// operating point) distill through run_link_batch events the benchmark
// arms at each link's frame period, feeding the KMS. The KMS serves one
// closed-loop KmsWireClient over an in-memory channel: each step is a
// get_key by the initiator application and the peer application's
// get_key_with_id claim, both over the wire. A KmsIkeBridge keeps a VPN
// gateway pair supplied, and the pair carries AES-128 ESP traffic at a
// fixed simulated packet rate. Key is consumed as it is made, so the run
// sees withdrawals beside deposits, starved rounds and replenish wakeups.
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <random>

#include "keybench/src/harness.hpp"
#include "src/ipsec/vpn_sim.hpp"
#include "src/kms/ike_bridge.hpp"
#include "src/kms/kms.hpp"
#include "src/kms/wire_service.hpp"
#include "src/net/channel_transport.hpp"
#include "src/network/key_transport.hpp"

namespace keybench {
namespace {

using qkd::SimTime;
using qkd::kms::GrantStatus;
using qkd::kms::KeyManagementService;
using qkd::kms::QosClass;
using qkd::network::MeshSimulation;
using qkd::network::NodeId;
using qkd::network::NodeKind;
using qkd::network::Topology;

constexpr NodeId kInitiator = 1;
constexpr NodeId kPeer = 2;
constexpr std::size_t kWireKeyBits = 128;  // one AES-128 key per get_key
constexpr SimTime kPacketPeriod = 50 * qkd::kMillisecond;  // 20 ESP pkt/s
constexpr SimTime kPumpPeriod = 100 * qkd::kMillisecond;
constexpr double kSaLifetimeS = 60.0;  // the paper's once-a-minute rekey
/// Frames each link distils while the application idles before a request
/// and the tunnel carries traffic: enough to cover one request and the
/// bridge's share most of the time, so a call waits on the KMS and the
/// wire rather than on a frame. The think time is exactly this many frame
/// periods (~2.1 s), so every step does the same distillation work.
constexpr std::size_t kThinkFrames = 2;

Topology relay_pair() {
  Topology topo;
  const NodeId relay = topo.add_node("relay", NodeKind::kTrustedRelay);
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  topo.add_link(relay, a);  // default optics: 10 km, mu = 0.1, 1 MHz
  topo.add_link(relay, b);
  return topo;
}

qkd::network::LinkKeyService::Config engine_config(std::uint64_t seed) {
  qkd::network::LinkKeyService::Config config;
  config.seed = seed;
  config.threads = 1;
  config.proto.preposition_extra_bits = kPrepositionedPadBits;
  return config;
}

qkd::ipsec::SpdEntry protect_policy() {
  qkd::ipsec::SpdEntry entry;
  entry.name = "vpn";
  entry.selector.src_prefix = qkd::ipsec::parse_ipv4("10.1.0.0");
  entry.selector.src_mask = 0xffff0000;
  entry.selector.dst_prefix = qkd::ipsec::parse_ipv4("10.2.0.0");
  entry.selector.dst_mask = 0xffff0000;
  entry.action = qkd::ipsec::PolicyAction::kProtect;
  entry.cipher = qkd::ipsec::CipherAlgo::kAes128;
  entry.qkd_mode = qkd::ipsec::QkdMode::kHybrid;
  entry.qblocks_per_rekey = 1;
  entry.lifetime_seconds = kSaLifetimeS;
  return entry;
}

qkd::kms::KmsIkeBridge::Config bridge_config() {
  qkd::kms::KmsIkeBridge::Config config;
  config.refill_bits = 2 * qkd::keystore::KeySupply::kQblockBits;
  config.low_water_bits = qkd::keystore::KeySupply::kQblockBits;
  return config;
}

/// Client-side transport that serves the request it just sent whenever the
/// client's inbox is empty: the single-threaded stand-in for a KMS process
/// on the far end of the channel. Each serve is a "wire.serve" span.
class ServedChannel final : public qkd::wire::Transport {
 public:
  ServedChannel(qkd::net::PublicChannel& channel,
                qkd::kms::KmsWireServer& server, Spans& spans)
      : client_side_(channel, qkd::net::ChannelTransport::Side::kA),
        server_side_(channel, qkd::net::ChannelTransport::Side::kB),
        server_(server),
        spans_(spans) {}

  bool send_frame(const qkd::Bytes& frame) override {
    return client_side_.send_frame(frame);
  }

  std::optional<qkd::Bytes> recv_frame() override {
    if (auto ready = client_side_.recv_frame()) return ready;
    {
      Scope serve(spans_, "wire.serve");
      server_.serve_one(server_side_);
    }
    return client_side_.recv_frame();
  }

 private:
  qkd::net::ChannelTransport client_side_;
  qkd::net::ChannelTransport server_side_;
  qkd::kms::KmsWireServer& server_;
  Spans& spans_;
};

struct Counters {
  std::uint64_t wire_calls = 0;
  std::uint64_t wire_refused = 0;
  std::uint64_t wire_bits = 0;
  std::uint64_t claim_mismatches = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t payload_mismatches = 0;
};

class EndToEnd final : public Workload {
 public:
  explicit EndToEnd(const Options& options)
      : Workload(1),
        rng_(options.seed),
        mesh_(relay_pair(), options.seed, engine_config(options.seed)),
        vpn_(qkd::ipsec::VpnLinkSimulation::Params{}, options.seed),
        scheduler_(vpn_.clock()),
        kms_(mesh_, scheduler_, kms_config(options.seed)),
        server_(kms_, scheduler_),
        io_(channel_, server_, spans()),
        client_(io_),
        bridge_(kms_, kInitiator, kPeer, vpn_.a().key_supply(),
                vpn_.b().key_supply(), bridge_config()) {
    auto& service = *mesh_.key_service();
    for (std::size_t i = 0; i < tallies_.size(); ++i) {
      install_stage_probes(service.session(i), tallies_[i], spans());
      const SimTime period =
          qkd::seconds_to_sim(service.link_frame_duration_s(i));
      // Both links have the same optics, hence the same frame period.
      think_time_ = static_cast<SimTime>(kThinkFrames) * period;
      scheduler_.every(period, period, [this, i](SimTime) {
        Scope batch(spans(), "network.link_batch");
        mesh_.key_service()->run_link_batch(i);
      });
    }
    kms_.set_grant_observer([this](const qkd::kms::Grant& grant) {
      if (grant.status == GrantStatus::kGranted)
        latency_ms_.push_back(
            qkd::sim_to_seconds(grant.granted_at - grant.requested_at) * 1e3);
    });

    const auto alice = client_.register_app("alice-app", kInitiator, kPeer);
    const auto bob = client_.register_app("bob-app", kPeer, kInitiator);
    if (!alice || !bob)
      throw std::runtime_error("e2e: application registration failed");
    alice_ = *alice;
    bob_ = *bob;

    vpn_.install_mirrored_policy(protect_policy());
    bridge_.prime();
    vpn_.start();
    scheduler_.every(kPumpPeriod, kPumpPeriod, [this](SimTime) {
      Scope pump(spans(), "ipsec.pump");
      vpn_.pump();
      check_delivered();
    });
    scheduler_.every(kPacketPeriod, kPacketPeriod, [this](SimTime now) {
      Scope protect(spans(), "ipsec.protect");
      send_packet(now);
    });
  }

  std::size_t warmup_steps() const override { return 2; }
  /// Every think time distils exactly two frames per link, so one step is
  /// a block of nearly fixed work (~0.25 s of wall time); a wire call
  /// crosses a frame boundary about once in fifty steps.
  std::size_t block_steps() const override { return 1; }

  void begin_measurement() override {
    base_ = counters_;
    first_measured_seq_ = counters_.packets_sent;
    delivered_measured_ = 0;
    base_latency_ = latency_ms_.size();
    base_events_ = scheduler_.dispatched();
    base_stats_ = kms_.stats();
    base_mesh_ = mesh_.stats();
    base_keystore_ = keystore();
    base_channel_ = channel_.stats();
    base_retransmits_ = client_.retransmits();
    base_bridge_ = bridge_.stats();
    base_gateways_ = gateways();
    base_tallies_ = tallies_;
    base_links_ = LinkTotals::of(*mesh_.key_service());
  }

  StepOutcome step() override {
    const double sim_before = vpn_.clock().seconds();
    const std::uint64_t bridge_before = bridge_.stats().bits_delivered;
    {
      Scope think(spans(), "sim.run");
      scheduler_.run_for(think_time_);
    }
    const auto call_start = std::chrono::steady_clock::now();
    StepOutcome out;
    out.attempted = 1;
    ++counters_.wire_calls;
    std::optional<qkd::kms::KmsWireClient::KeyReply> reply;
    {
      Scope call(spans(), "wire.get_key");
      reply = client_.get_key(alice_, kWireKeyBits);
    }
    if (!reply.has_value() || reply->status != GrantStatus::kGranted) {
      ++counters_.wire_refused;
      out.failed = 1;
    } else {
      std::optional<qkd::keystore::KeyBlock> claim;
      {
        Scope call(spans(), "wire.claim");
        claim = client_.get_key_with_id(bob_, reply->key_id);
      }
      if (!claim.has_value() || !(claim->bits == reply->bits))
        ++counters_.claim_mismatches;
      counters_.wire_bits += reply->bits.size();
      out.key_bits = static_cast<double>(reply->bits.size());
    }
    out.op_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - call_start)
                   .count();
    // Gateway key counts once: the bridge mirrors it into both supplies.
    out.key_bits +=
        static_cast<double>(bridge_.stats().bits_delivered - bridge_before);
    out.sim_s = vpn_.clock().seconds() - sim_before;
    return out;
  }

  void fold(const std::vector<qkd::obs::Span>& spans) override {
    totals_.add(spans);
  }

  void settle(std::uint64_t& attempted, std::uint64_t& failed) override {
    // Deliver what is already on the wire; packets still waiting for an SA
    // stay undelivered and count as failed.
    vpn_.pump();
    check_delivered();
    const std::uint64_t sent = counters_.packets_sent - first_measured_seq_;
    attempted += sent;
    failed += sent - delivered_measured_;
  }

  bool finish(std::string& why, MetricMap& model, MetricMap& layers,
              const RunWall& wall) override {
    if (counters_.claim_mismatches != 0) {
      why = std::to_string(counters_.claim_mismatches) +
            " wire grants differ from their peer claim";
      return false;
    }
    if (counters_.payload_mismatches != 0) {
      why = std::to_string(counters_.payload_mismatches) +
            " delivered ESP payloads differ from the submitted ones";
      return false;
    }
    if (!pairs_in_lockstep(kms_, why)) return false;
    std::uint64_t granted_bits = 0;
    for (std::size_t qos = 0; qos < qkd::kms::kQosClassCount; ++qos)
      granted_bits +=
          kms_.class_stats(static_cast<QosClass>(qos)).bits_granted;
    const LinkTotals all = LinkTotals::of(*mesh_.key_service());
    if (granted_bits > all.min_distilled) {
      why = "granted more bits than a link distilled";
      return false;
    }

    const LinkTotals run = all.since(base_links_);
    const StageTally tally = tally_since(tallies_, base_tallies_);
    std::vector<double> latency(latency_ms_.begin() + base_latency_,
                                latency_ms_.end());
    const double tail_p = tail_percentile(latency.size());
    const auto& stats = kms_.stats();
    const auto& mesh = mesh_.stats();
    const Keystore store = keystore();
    const auto& channel = channel_.stats();
    const Gateways gw = gateways();
    const std::uint64_t sent = counters_.packets_sent - first_measured_seq_;
    const std::uint64_t delivered = delivered_measured_;
    const std::uint64_t transports = stats.transports - base_stats_.transports;

    model["wire_calls"] =
        static_cast<double>(counters_.wire_calls - base_.wire_calls);
    model["wire_refused"] =
        static_cast<double>(counters_.wire_refused - base_.wire_refused);
    model["wire_bits"] =
        static_cast<double>(counters_.wire_bits - base_.wire_bits);
    model["packets_sent"] = static_cast<double>(sent);
    model["packets_delivered"] = static_cast<double>(delivered);
    model["batches"] = static_cast<double>(run.batches);
    model["distilled_bits"] = static_cast<double>(run.distilled);
    model["detections"] = static_cast<double>(tally.detections);
    model["key_rate_bps_sim"] = run.rate_bps();
    model["transports"] = static_cast<double>(transports);
    model["sim_events"] =
        static_cast<double>(scheduler_.dispatched() - base_events_);
    model["grant_p50_sim_ms"] = percentile(latency, 50.0);
    model["grant_tail_sim_ms"] = percentile(latency, tail_p);
    model["grant_tail_percentile"] = tail_p;
    model["sim_s"] = vpn_.clock().seconds();

    add_qkd_layers(layers, run, tally, totals_);
    layers["optics.frame_s"] = totals_.self("network.link_batch");
    layers["mesh.transports"] = static_cast<double>(
        mesh.transports_succeeded - base_mesh_.transports_succeeded);
    layers["mesh.starved"] = static_cast<double>(
        mesh.transports_starved - base_mesh_.transports_starved);
    layers["kms.service_s"] =
        totals_.self("wire.serve") + totals_.self("sim.run");
    const auto grants = static_cast<double>(latency.size());
    layers["kms.grants_per_wall_s"] = ratio(grants, wall.measured_s);
    layers["kms.grants_per_frame"] =
        ratio(grants, static_cast<double>(transports));
    layers["kms.grant_p50_sim_ms"] = model["grant_p50_sim_ms"];
    layers["kms.grant_tail_sim_ms"] = model["grant_tail_sim_ms"];
    layers["kms.starved_rounds"] =
        static_cast<double>(stats.starved_rounds - base_stats_.starved_rounds);
    layers["kms.replenish_wakeups"] = static_cast<double>(
        stats.replenish_wakeups - base_stats_.replenish_wakeups);
    layers["kms.shed"] = static_cast<double>(stats.shed_events -
                                             base_stats_.shed_events);
    layers["kms.shard_imbalance"] = 1.0;  // one shard
    layers["sim.events"] = model["sim_events"];
    layers["sim.run_s"] = totals_.total("sim.run");
    layers["keystore.bits_deposited"] =
        static_cast<double>(store.deposited - base_keystore_.deposited);
    layers["keystore.bits_withdrawn"] =
        static_cast<double>(store.withdrawn - base_keystore_.withdrawn);
    layers["keystore.failed_withdrawals"] =
        static_cast<double>(store.failed - base_keystore_.failed);
    layers["wire.get_key_s"] =
        totals_.total("wire.get_key") + totals_.total("wire.claim");
    layers["wire.serve_s"] = totals_.total("wire.serve");
    layers["wire.self_s"] =
        totals_.self("wire.get_key") + totals_.self("wire.claim");
    layers["wire.frames"] = static_cast<double>(
        (channel.messages_ab + channel.messages_ba) -
        (base_channel_.messages_ab + base_channel_.messages_ba));
    layers["wire.bytes"] = static_cast<double>(
        (channel.bytes_ab + channel.bytes_ba) -
        (base_channel_.bytes_ab + base_channel_.bytes_ba));
    layers["wire.retransmits"] =
        static_cast<double>(client_.retransmits() - base_retransmits_);
    layers["ipsec.protect_s"] = totals_.total("ipsec.protect");
    layers["ipsec.pump_s"] = totals_.total("ipsec.pump");
    layers["ipsec.esp_delivered_frac"] =
        ratio(static_cast<double>(delivered), static_cast<double>(sent));
    layers["ipsec.sa_rollovers"] =
        static_cast<double>(gw.rollovers - base_gateways_.rollovers);
    layers["ipsec.supply_exhausted"] =
        static_cast<double>(gw.exhausted - base_gateways_.exhausted);
    layers["ipsec.bridge_refills"] = static_cast<double>(
        bridge_.stats().refills_granted - base_bridge_.refills_granted);
    const double top = layers["wire.get_key_s"] + totals_.total("sim.run");
    layers["unattributed_frac"] =
        wall.traced_s > 0.0 ? 1.0 - top / wall.traced_s : 0.0;
    return true;
  }

  std::map<std::string, std::string> params() const override {
    return {{"links", "2 (relay + 2 endpoints), 10 km"},
            {"mu", "0.1"},
            {"pulse_rate_hz", "1e6"},
            {"frame_slots", "1048576"},
            {"prepositioned_pad_bits", std::to_string(kPrepositionedPadBits)},
            {"wire_key_bits", std::to_string(kWireKeyBits)},
            {"esp_packets_per_s", "20"},
            {"sa_lifetime_s", "60"},
            {"bridge_refill_bits", "2048"},
            {"lanes", "1"},
            {"think_frames", std::to_string(kThinkFrames)},
            {"step", "2 frame periods of think time, then a wire get_key "
                     "plus its claim"}};
  }

 private:
  struct Keystore {
    std::uint64_t deposited = 0;
    std::uint64_t withdrawn = 0;
    std::uint64_t failed = 0;
  };

  struct Gateways {
    std::uint64_t rollovers = 0;
    std::uint64_t exhausted = 0;
  };

  static KeyManagementService::Config kms_config(std::uint64_t seed) {
    KeyManagementService::Config config;
    config.seed = seed;
    // Where supply binds (at the start, around bridge refills) rounds
    // starve and wait for the next batch; no class is shed, so every
    // request is eventually served.
    config.shed_after_starved_rounds = std::numeric_limits<std::size_t>::max();
    return config;
  }

  Keystore keystore() {
    Keystore out;
    auto& service = *mesh_.key_service();
    for (std::size_t i = 0; i < service.link_count(); ++i) {
      const auto& stats = service.session(i).supply_pool().stats();
      out.deposited += stats.bits_deposited;
      out.withdrawn += stats.bits_withdrawn;
      out.failed += stats.failed_withdrawals;
    }
    return out;
  }

  Gateways gateways() {
    return {vpn_.a().stats().sa_rollovers + vpn_.b().stats().sa_rollovers,
            vpn_.a().stats().supply_exhausted +
                vpn_.b().stats().supply_exhausted};
  }

  /// One red-side packet from 10.1/16 to 10.2/16 whose payload carries its
  /// sequence number plus seeded filler of seeded length.
  void send_packet(SimTime now) {
    qkd::ipsec::IpPacket packet;
    packet.src = qkd::ipsec::parse_ipv4("10.1.0.5");
    packet.dst = qkd::ipsec::parse_ipv4("10.2.0.7");
    const std::uint64_t seq = counters_.packets_sent++;
    const std::size_t length =
        std::uniform_int_distribution<std::size_t>(16, 512)(rng_);
    packet.payload.resize(length);
    for (std::size_t i = 0; i < 8; ++i)
      packet.payload[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    for (std::size_t i = 8; i < length; ++i)
      packet.payload[i] = static_cast<std::uint8_t>(rng_());
    in_flight_.push_back({seq, packet});
    vpn_.a().submit_plaintext(packet, now);
  }

  /// Matches packets delivered at B against the submitted ones, in order;
  /// packets skipped over were lost (dropped waiting for an SA).
  void check_delivered() {
    for (const auto& packet : vpn_.b().drain_delivered()) {
      std::uint64_t seq = 0;
      for (std::size_t i = 0; i < 8 && i < packet.payload.size(); ++i)
        seq |= static_cast<std::uint64_t>(packet.payload[i]) << (8 * i);
      while (!in_flight_.empty() && in_flight_.front().first < seq)
        in_flight_.pop_front();
      if (in_flight_.empty() || in_flight_.front().first != seq ||
          !(in_flight_.front().second == packet)) {
        ++counters_.payload_mismatches;
        continue;
      }
      in_flight_.pop_front();
      ++counters_.packets_delivered;
      if (seq >= first_measured_seq_) ++delivered_measured_;
    }
  }

  std::mt19937_64 rng_;
  MeshSimulation mesh_;
  std::vector<StageTally> tallies_ =
      std::vector<StageTally>(mesh_.topology().link_count());
  qkd::ipsec::VpnLinkSimulation vpn_;
  qkd::sim::EventScheduler scheduler_;
  KeyManagementService kms_;
  qkd::kms::KmsWireServer server_;
  qkd::net::PublicChannel channel_;
  ServedChannel io_;
  qkd::kms::KmsWireClient client_;
  qkd::kms::KmsIkeBridge bridge_;
  qkd::kms::ClientId alice_ = 0;
  qkd::kms::ClientId bob_ = 0;
  SimTime think_time_ = 0;
  std::deque<std::pair<std::uint64_t, qkd::ipsec::IpPacket>> in_flight_;
  std::vector<double> latency_ms_;
  Counters counters_;
  Counters base_;
  std::uint64_t first_measured_seq_ = 0;  // first packet sent while measured
  std::uint64_t delivered_measured_ = 0;  // ...and delivered of those
  std::size_t base_latency_ = 0;
  std::uint64_t base_events_ = 0;
  KeyManagementService::Stats base_stats_;
  MeshSimulation::Stats base_mesh_;
  Keystore base_keystore_;
  qkd::net::ChannelStats base_channel_;
  std::size_t base_retransmits_ = 0;
  qkd::kms::KmsIkeBridge::Stats base_bridge_;
  Gateways base_gateways_;
  std::vector<StageTally> base_tallies_;
  LinkTotals base_links_;
  SpanTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> make_e2e(const Options& options) {
  return std::make_unique<EndToEnd>(options);
}

}  // namespace keybench
