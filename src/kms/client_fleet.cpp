#include "src/kms/client_fleet.hpp"

#include <algorithm>
#include <string>

namespace qkd::kms {

KmsClientFleet::KmsClientFleet(KeyManagementService& kms) : kms_(kms) {
  for (std::size_t row = 0; row < std::size(kCounters); ++row)
    counters_.emplace_back(kms.shard_count());
}

KmsClientFleet::~KmsClientFleet() {
  // Stop the tickers, then deregister every live member so its queued
  // requests drain (as kDeparted) while the fleet — which their callbacks
  // capture — is still alive.
  for (Member& member : members_) {
    if (member.ticker.valid()) member.stream->cancel(member.ticker);
    if (member.active) kms_.deregister_client(member.id);
  }
}

void KmsClientFleet::issue_request(Member& member, std::size_t bits) {
  count<&Stats::requests_issued>(member.shard);
  const std::size_t index = static_cast<std::size_t>(&member - members_.data());
  kms_.get_key(member.id, bits, [this, index](const Grant& grant) {
    const std::size_t shard = members_[index].shard;
    switch (grant.status) {
      case GrantStatus::kGranted: {
        count<&Stats::granted>(shard);
        Member& m = members_[index];
        if (!m.active) return;  // departed while the request was queued
        // The peer application fetches its copy right away: every grant
        // round-trips the ETSI get_key / get_key_with_id agreement.
        const auto peer = kms_.get_key_with_id(m.id, grant.key_id);
        if (peer.has_value() && peer->bits == grant.bits)
          count<&Stats::claims_matched>(shard);
        else
          count<&Stats::claims_mismatched>(shard);
        return;
      }
      case GrantStatus::kRejectedQueueFull:
        count<&Stats::rejected>(shard);
        return;
      case GrantStatus::kShed: count<&Stats::shed>(shard); return;
      case GrantStatus::kDeparted: count<&Stats::departed>(shard); return;
    }
  });
}

void KmsClientFleet::client_arrival(qkd::SimTime now,
                                    const sim::ClientArrival& arrival) {
  if (arrival.count == 0 || arrival.request_rate_hz <= 0.0 ||
      arrival.bits == 0)
    throw std::invalid_argument("KmsClientFleet: degenerate ClientArrival");
  const qkd::SimTime period =
      std::max<qkd::SimTime>(1, seconds_to_sim(1.0 / arrival.request_rate_hz));
  for (std::size_t i = 0; i < arrival.count; ++i) {
    ClientConfig config;
    config.name = "fleet-" + std::to_string(arrival.src) + "-" +
                  std::to_string(arrival.dst) + "-q" +
                  std::to_string(arrival.qos) + "-" +
                  std::to_string(arrivals_++);
    config.src = arrival.src;
    config.dst = arrival.dst;
    config.qos = static_cast<QosClass>(arrival.qos);

    Member member;
    member.id = kms_.register_client(std::move(config));
    member.src = arrival.src;
    member.dst = arrival.dst;
    member.qos = arrival.qos;
    member.shard = kms_.shard_of(arrival.src, arrival.dst);
    member.stream = &kms_.stream_for_pair(arrival.src, arrival.dst);
    member.active = true;
    members_.push_back(std::move(member));
    ++active_;

    // Phase-stagger the cohort across one period so a 1000-client arrival
    // does not land 1000 same-instant requests every cycle. The ticker
    // lives on the member's shard stream: in sharded mode the request is
    // issued on the same lane that serves it.
    const std::size_t index = members_.size() - 1;
    const qkd::SimTime offset =
        static_cast<qkd::SimTime>((i + 1) * period / (arrival.count + 1));
    const std::size_t bits = arrival.bits;
    members_[index].ticker = members_[index].stream->every(
        offset, period,
        [this, index, bits](qkd::SimTime) {
          issue_request(members_[index], bits);
        });
  }
  (void)now;
}

void KmsClientFleet::client_departure(qkd::SimTime now,
                                      const sim::ClientDeparture& departure) {
  std::size_t remaining = departure.count;
  for (auto it = members_.rbegin(); it != members_.rend() && remaining > 0;
       ++it) {
    if (!it->active || it->src != departure.src || it->dst != departure.dst ||
        it->qos != departure.qos)
      continue;
    it->stream->cancel(it->ticker);
    it->ticker = sim::EventScheduler::Handle();
    it->active = false;
    kms_.deregister_client(it->id);
    --active_;
    --remaining;
  }
  (void)now;
}

KmsClientFleet::Stats KmsClientFleet::stats() const {
  return obs::read_counters(kCounters, counters_);
}

}  // namespace qkd::kms
