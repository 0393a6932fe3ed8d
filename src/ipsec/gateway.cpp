#include "src/ipsec/gateway.hpp"

#include <algorithm>

#include "src/common/logging.hpp"

namespace qkd::ipsec {
namespace {

IkeConfig make_ike_config(const VpnGateway::Config& config) {
  IkeConfig ike;
  ike.name = config.name;
  ike.local_address = config.address;
  ike.peer_address = config.peer_address;
  ike.preshared_key = config.preshared_key;
  ike.phase2_timeout_s = config.phase2_timeout_s;
  return ike;
}

constexpr obs::CounterField<VpnGateway::Stats> kStatsFields[] = {
    {"esp_sent", &VpnGateway::Stats::esp_sent},
    {"esp_received", &VpnGateway::Stats::esp_received},
    {"delivered", &VpnGateway::Stats::delivered},
    {"bypassed", &VpnGateway::Stats::bypassed},
    {"discarded_policy", &VpnGateway::Stats::discarded_policy},
    {"dropped_no_policy", &VpnGateway::Stats::dropped_no_policy},
    {"dropped_queue_full", &VpnGateway::Stats::dropped_queue_full},
    {"auth_failures", &VpnGateway::Stats::auth_failures},
    {"replay_drops", &VpnGateway::Stats::replay_drops},
    {"unknown_spi", &VpnGateway::Stats::unknown_spi},
    {"otp_exhausted", &VpnGateway::Stats::otp_exhausted},
    {"sa_rollovers", &VpnGateway::Stats::sa_rollovers},
    {"supply_low_water", &VpnGateway::Stats::supply_low_water},
    {"supply_exhausted", &VpnGateway::Stats::supply_exhausted},
    {"supply_replenished", &VpnGateway::Stats::supply_replenished},
};

constexpr obs::CounterField<IkeStats> kIkeFields[] = {
    {"phase1_completed", &IkeStats::phase1_completed},
    {"phase2_initiated", &IkeStats::phase2_initiated},
    {"phase2_responded", &IkeStats::phase2_responded},
    {"phase2_completed", &IkeStats::phase2_completed},
    {"phase2_timeouts", &IkeStats::phase2_timeouts},
    {"retransmits", &IkeStats::retransmits},
    {"qblocks_consumed", &IkeStats::qblocks_consumed},
    {"qblocks_reserved", &IkeStats::qblocks_reserved},
    {"reservations_released", &IkeStats::reservations_released},
    {"degraded_negotiations", &IkeStats::degraded_negotiations},
    {"failed_otp_negotiations", &IkeStats::failed_otp_negotiations},
    {"supply_exhausted_events", &IkeStats::supply_exhausted_events},
};

}  // namespace

VpnGateway::VpnGateway(Config config, std::uint64_t seed)
    : config_(config),
      key_pool_(config.name),
      ike_(make_ike_config(config), &spd_, &sad_, key_pool_, seed),
      drbg_(seed ^ 0x6a7e3a7eULL) {
  key_pool_.set_low_water_bits(config_.supply_low_water_bits);
  key_pool_.subscribe([this](const keystore::SupplyEvent& event) {
    on_supply_event(event);
  });
}

void VpnGateway::bind_metrics(obs::MetricsRegistry& registry,
                              std::string prefix) {
  registry.add_collector([this, prefix = std::move(prefix)](
                             obs::MetricsRegistry::Collect& out) {
    for (const auto& field : kStatsFields)
      out.counter(prefix + "_" + field.name, stats_.*field.member);
    for (const auto& field : kIkeFields)
      out.counter(prefix + "_ike_" + field.name, ike_.stats().*field.member);
    out.gauge(prefix + "_sas_installed", static_cast<double>(sad_.size()));
    out.gauge(prefix + "_supply_bits",
              static_cast<double>(key_pool_.available_bits()));
  });
}

void VpnGateway::on_supply_event(const keystore::SupplyEvent& event) {
  switch (event.kind) {
    case keystore::SupplyEventKind::kLowWater:
      ++stats_.supply_low_water;
      break;
    case keystore::SupplyEventKind::kExhausted:
      ++stats_.supply_exhausted;
      break;
    case keystore::SupplyEventKind::kReplenished:
      ++stats_.supply_replenished;
      // Fresh key after starvation: wake stalled negotiations on the next
      // tick (deposits arrive outside packet processing, with no timestamp
      // in hand).
      supply_wakeup_ = true;
      break;
  }
}

bool VpnGateway::wake_stalled_negotiations(qkd::SimTime now) {
  bool still_stalled = false;
  for (const auto& [policy_name, queue] : pending_packets_) {
    if (queue.empty()) continue;
    if (negotiating_[policy_name]) continue;
    if (outbound_spi_.count(policy_name) > 0) continue;
    for (const auto& entry : spd_.entries()) {
      if (entry.name == policy_name && entry.action == PolicyAction::kProtect)
        ensure_sa(entry, now);
    }
    // The supply may have come back with less than this policy needs (an
    // OTP offer wants several Qblocks in one lane); report it so the
    // caller keeps retrying rather than waiting for another low-water
    // crossing that may never happen.
    if (!negotiating_[policy_name] && outbound_spi_.count(policy_name) == 0)
      still_stalled = true;
  }
  return still_stalled;
}

void VpnGateway::send_ike(const Bytes& message) {
  if (!transmit_) return;
  IpPacket outer;
  outer.protocol = IpPacket::kProtoUdp;  // IKE rides UDP/500
  outer.src = config_.address;
  outer.dst = config_.peer_address;
  outer.payload = message;
  transmit_(outer.serialize());
}

void VpnGateway::send_esp(const Bytes& esp_payload) {
  if (!transmit_) return;
  IpPacket outer;
  outer.protocol = IpPacket::kProtoEsp;
  outer.src = config_.address;
  outer.dst = config_.peer_address;
  outer.payload = esp_payload;
  transmit_(outer.serialize());
  ++stats_.esp_sent;
}

void VpnGateway::start(qkd::SimTime now) { send_ike(ike_.begin_phase1(now)); }

void VpnGateway::ensure_sa(const SpdEntry& policy, qkd::SimTime now) {
  if (outbound_spi_.count(policy.name) > 0) return;
  if (negotiating_[policy.name]) return;
  const auto msg = ike_.initiate_phase2(policy, now);
  if (msg.has_value()) {
    negotiating_[policy.name] = true;
    send_ike(*msg);
  }
}

void VpnGateway::protect_and_send(const SpdEntry& policy,
                                  const IpPacket& packet, qkd::SimTime now) {
  auto it = outbound_spi_.find(policy.name);
  SecurityAssociation* sa =
      it == outbound_spi_.end() ? nullptr : sad_.find(it->second);
  if (sa == nullptr) {
    // No SA yet: queue and (re)negotiate.
    auto& queue = pending_packets_[policy.name];
    if (queue.size() >= config_.max_pending_packets) {
      ++stats_.dropped_queue_full;
    } else {
      queue.push_back(packet);
    }
    ensure_sa(policy, now);
    return;
  }
  const auto esp = esp_encapsulate(*sa, packet, drbg_.next_u64());
  if (!esp.has_value()) {
    // OTP pad ran dry mid-SA: force rollover.
    ++stats_.otp_exhausted;
    sad_.remove(sa->spi);
    outbound_spi_.erase(policy.name);
    auto& queue = pending_packets_[policy.name];
    if (queue.size() < config_.max_pending_packets) queue.push_back(packet);
    ensure_sa(policy, now);
    return;
  }
  send_esp(*esp);
}

void VpnGateway::submit_plaintext(const IpPacket& packet, qkd::SimTime now) {
  const SpdEntry* policy = spd_.lookup(packet);
  if (policy == nullptr) {
    ++stats_.dropped_no_policy;
    return;
  }
  switch (policy->action) {
    case PolicyAction::kBypass: {
      if (transmit_) transmit_(packet.serialize());
      ++stats_.bypassed;
      return;
    }
    case PolicyAction::kDiscard:
      ++stats_.discarded_policy;
      return;
    case PolicyAction::kProtect:
      protect_and_send(*policy, packet, now);
      return;
  }
}

void VpnGateway::deliver_from_network(const Bytes& outer_wire,
                                      qkd::SimTime now) {
  IpPacket outer;
  try {
    outer = IpPacket::parse(outer_wire);
  } catch (const std::invalid_argument&) {
    return;  // line noise
  }

  if (outer.protocol == IpPacket::kProtoUdp) {
    // IKE control traffic.
    for (const Bytes& reply : ike_.handle_message(outer.payload, now))
      send_ike(reply);
    flush_established(now);
    return;
  }

  if (outer.protocol == IpPacket::kProtoEsp) {
    ++stats_.esp_received;
    if (outer.payload.size() < 4) return;
    const std::uint32_t spi =
        static_cast<std::uint32_t>(outer.payload[0]) << 24 |
        static_cast<std::uint32_t>(outer.payload[1]) << 16 |
        static_cast<std::uint32_t>(outer.payload[2]) << 8 | outer.payload[3];
    SecurityAssociation* sa = sad_.find(spi);
    if (sa == nullptr) {
      ++stats_.unknown_spi;
      return;
    }
    const EspResult result = esp_decapsulate(*sa, outer.payload);
    if (result.ok()) {
      delivered_.push_back(*result.packet);
      ++stats_.delivered;
      return;
    }
    switch (*result.error) {
      case EspError::kBadIntegrity:
        ++stats_.auth_failures;
        break;
      case EspError::kReplay:
        ++stats_.replay_drops;
        break;
      case EspError::kOtpExhausted:
        ++stats_.otp_exhausted;
        break;
      default:
        break;
    }
    return;
  }

  // Anything else arriving in the clear is delivered as-is (bypass traffic).
  delivered_.push_back(outer);
  ++stats_.delivered;
}

void VpnGateway::flush_established(qkd::SimTime now) {
  for (const NegotiatedSa& negotiated : ike_.drain_established()) {
    outbound_spi_[negotiated.policy_name] = negotiated.outbound_spi;
    negotiating_[negotiated.policy_name] = false;
    auto queue_it = pending_packets_.find(negotiated.policy_name);
    if (queue_it == pending_packets_.end()) continue;
    // Flush packets that were waiting for this SA.
    std::deque<IpPacket> queue;
    queue.swap(queue_it->second);
    for (const IpPacket& packet : queue) submit_plaintext(packet, now);
  }
}

void VpnGateway::tick(qkd::SimTime now) {
  // SA lifetime expiry -> rollover.
  const auto removed = sad_.expire(now);
  if (!removed.empty()) {
    for (auto it = outbound_spi_.begin(); it != outbound_spi_.end();) {
      const bool gone =
          std::find(removed.begin(), removed.end(), it->second) != removed.end();
      if (gone) {
        ++stats_.sa_rollovers;
        QKD_LOG(kInfo) << config_.name
                       << " racoon: INFO: pfkey.c:1365:pk_recvexpire(): "
                          "IPsec-SA expired: ESP/Tunnel spi=" << it->second;
        const std::string policy_name = it->first;
        it = outbound_spi_.erase(it);
        // Proactively renegotiate so traffic stalls are brief.
        for (const auto& entry : spd_.entries()) {
          if (entry.name == policy_name && entry.action == PolicyAction::kProtect)
            ensure_sa(entry, now);
        }
      } else {
        ++it;
      }
    }
  }
  for (const Bytes& retransmit : ike_.poll(now)) send_ike(retransmit);
  // Timed-out negotiations release their in-flight marker so the next
  // packet (or a queued one) can retrigger Phase 2.
  for (const std::string& policy_name : ike_.drain_timed_out()) {
    negotiating_[policy_name] = false;
    auto queue_it = pending_packets_.find(policy_name);
    if (queue_it == pending_packets_.end() || queue_it->second.empty())
      continue;
    for (const auto& entry : spd_.entries()) {
      if (entry.name == policy_name && entry.action == PolicyAction::kProtect)
        ensure_sa(entry, now);
    }
  }
  // A replenished supply ends a starvation episode: retry negotiations that
  // stalled waiting for key, without waiting for fresh traffic. The wakeup
  // stays armed while any policy remains stalled — kReplenished is
  // edge-triggered on the low-water crossing, and the deposit that finally
  // covers a multi-Qblock OTP offer may not produce another crossing.
  if (supply_wakeup_) supply_wakeup_ = wake_stalled_negotiations(now);
  flush_established(now);
}

std::optional<qkd::SimTime> VpnGateway::next_deadline(qkd::SimTime now) const {
  if (supply_wakeup_) return now;  // replenished supply: wake immediately
  std::optional<qkd::SimTime> earliest = sad_.next_expiry();
  const auto ike_timer = ike_.next_timer();
  if (ike_timer.has_value() &&
      (!earliest.has_value() || *ike_timer < *earliest))
    earliest = ike_timer;
  if (earliest.has_value() && *earliest < now) return now;  // overdue
  return earliest;
}

std::vector<IpPacket> VpnGateway::drain_delivered() {
  std::vector<IpPacket> out;
  out.swap(delivered_);
  return out;
}

}  // namespace qkd::ipsec
