// The cryptographic VPN gateway of Figs. 2, 10 and 11.
//
// One gateway sits between a private ("red") enclave and the public
// ("black") network: outbound plaintext packets are matched against the SPD
// and either bypassed, discarded, or protected — tunneled through an ESP SA
// whose keys IKE negotiated, continually reseeded from QKD key material.
// Inbound packets are demultiplexed (IKE vs. ESP), decapsulated, checked and
// delivered. SA lifetimes drive rollover, triggering fresh Phase-2
// negotiations that withdraw fresh Qblocks.
#pragma once

#include <deque>
#include <functional>
#include <map>

#include "src/ipsec/esp.hpp"
#include "src/ipsec/ike.hpp"
#include "src/keystore/key_pool.hpp"
#include "src/obs/metrics.hpp"

namespace qkd::ipsec {

class VpnGateway {
 public:
  struct Config {
    std::string name = "gw";
    std::uint32_t address = 0;       // black-side address
    std::uint32_t peer_address = 0;  // the other gateway
    Bytes preshared_key;             // IKE Phase-1 PSK
    double phase2_timeout_s = 10.0;
    /// Plaintext packets waiting for an SA are dropped beyond this queue
    /// depth (the paper's timeout pressure made visible).
    std::size_t max_pending_packets = 64;
    /// Low-water mark on the key supply: crossing it down raises a
    /// supply_low_water event; a deposit lifting the supply back over it
    /// wakes any negotiation that stalled on an empty pool.
    std::size_t supply_low_water_bits = 4 * keystore::KeySupply::kQblockBits;
  };

  struct Stats {
    std::uint64_t esp_sent = 0;
    std::uint64_t esp_received = 0;
    std::uint64_t delivered = 0;       // decrypted packets handed to red side
    std::uint64_t bypassed = 0;
    std::uint64_t discarded_policy = 0;
    std::uint64_t dropped_no_policy = 0;
    std::uint64_t dropped_queue_full = 0;
    std::uint64_t auth_failures = 0;   // the mismatched-Qblock symptom
    std::uint64_t replay_drops = 0;
    std::uint64_t unknown_spi = 0;
    std::uint64_t otp_exhausted = 0;
    std::uint64_t sa_rollovers = 0;
    // Key-supply starvation events (delivered by KeySupply callbacks, not
    // polling): the Sec. 2 key-consumption race made visible.
    std::uint64_t supply_low_water = 0;
    std::uint64_t supply_exhausted = 0;
    std::uint64_t supply_replenished = 0;
  };

  /// `transmit` carries outer (black-side) IP packets to the peer.
  using TransmitFn = std::function<void(const Bytes&)>;

  VpnGateway(Config config, std::uint64_t seed);

  void set_transmit(TransmitFn transmit) { transmit_ = std::move(transmit); }

  SecurityPolicyDatabase& spd() { return spd_; }
  /// The gateway's key reservoir. Producers deposit through the KeySupply
  /// face (key_supply()); the concrete pool is exposed for stats/labels.
  keystore::KeyPool& key_pool() { return key_pool_; }
  keystore::KeySupply& key_supply() { return key_pool_; }
  const SecurityAssociationDatabase& sad() const { return sad_; }
  const IkeDaemon& ike() const { return ike_; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  /// Registers a collector exporting every Stats field as
  /// `<prefix>_<field>`, every IkeStats field as `<prefix>_ike_<field>`,
  /// and the gauges `<prefix>_sas_installed` (SAD entries) and
  /// `<prefix>_supply_bits` (key reservoir depth): the Sec. 7 rekey
  /// starvation, readable by alert rules and the scenario timeline. The
  /// gateway must outlive the binding.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

  /// Starts IKE Phase 1 (call on one side; the responder learns it from the
  /// wire).
  void start(qkd::SimTime now);

  /// A plaintext packet arriving from the red enclave.
  void submit_plaintext(const IpPacket& packet, qkd::SimTime now);

  /// A packet arriving from the black network (outer IP: ESP or IKE-in-UDP).
  void deliver_from_network(const Bytes& outer_wire, qkd::SimTime now);

  /// Periodic timer: SA expiry/rollover, IKE retransmits, queue flush.
  void tick(qkd::SimTime now);

  /// Earliest instant tick() has scheduled work: the next SA lifetime
  /// expiry, the next IKE retransmit/negotiation deadline, or `now` itself
  /// when a supply-replenished wakeup is armed. nullopt when the gateway is
  /// fully idle. An event-driven driver (src/sim) calls tick() exactly at
  /// these deadlines instead of on a fixed poll interval.
  std::optional<qkd::SimTime> next_deadline(qkd::SimTime now) const;

  /// Decrypted (or bypassed) packets delivered to the red side.
  std::vector<IpPacket> drain_delivered();

 private:
  void send_ike(const Bytes& message);
  void send_esp(const Bytes& esp_payload);
  void ensure_sa(const SpdEntry& policy, qkd::SimTime now);
  void flush_established(qkd::SimTime now);
  void protect_and_send(const SpdEntry& policy, const IpPacket& packet,
                        qkd::SimTime now);
  void on_supply_event(const keystore::SupplyEvent& event);
  /// Retriggers negotiation for policies with queued traffic and no SA
  /// (after a supply_replenished event ended a starvation episode).
  /// Returns true if some policy is still stalled (could not start a
  /// negotiation), so the caller keeps the wakeup armed.
  bool wake_stalled_negotiations(qkd::SimTime now);

  Config config_;
  SecurityPolicyDatabase spd_;
  SecurityAssociationDatabase sad_;
  keystore::KeyPool key_pool_;
  IkeDaemon ike_;
  qkd::crypto::Drbg drbg_;
  TransmitFn transmit_;
  Stats stats_;
  bool supply_wakeup_ = false;  // set by on_supply_event, consumed by tick()

  // Policy name -> current outbound SPI.
  std::map<std::string, std::uint32_t> outbound_spi_;
  // Policy name -> negotiation in flight.
  std::map<std::string, bool> negotiating_;
  // Packets awaiting an SA, per policy.
  std::map<std::string, std::deque<IpPacket>> pending_packets_;
  std::vector<IpPacket> delivered_;
};

}  // namespace qkd::ipsec
