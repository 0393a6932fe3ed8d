// Scripted client populations for the KMS.
//
// KmsClientFleet is the sim::ClientWorkloadDriver the scenario engine talks
// to: a ClientArrival{count, qos, rate, bits} action registers `count`
// applications on the KMS and gives each a phase-staggered periodic
// get_key event; ClientDeparture cancels them (most recently arrived
// first) and deregisters. Granted keys are immediately claimed on the peer
// side through get_key_with_id, so every grant continuously exercises —
// and verifies — the cross-end key-ID agreement.
//
// Sharding: each member's ticker is armed on the stream that serves its
// endpoint pair (KeyManagementService::stream_for_pair), so request issue,
// grant delivery and the peer claim all run on the owning shard's lane.
// The fleet's counters are obs::Counters with one cell per KMS shard (a
// member adds only into its shard's cell) summed on read: lanes never
// write the same memory, and any thread may read.
//
// This is how a scripted day ramps thousands of clients up and down with a
// handful of scenario lines (see example_kms_day and bench_kms/E19).
#pragma once

#include <cstdint>
#include <vector>

#include "src/kms/kms.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/scenario.hpp"

namespace qkd::kms {

class KmsClientFleet final : public sim::ClientWorkloadDriver {
 public:
  struct Stats {
    std::uint64_t requests_issued = 0;
    std::uint64_t granted = 0;
    std::uint64_t rejected = 0;  // admission control
    std::uint64_t shed = 0;
    std::uint64_t departed = 0;
    /// Peer-side claims whose bits matched the initiator's grant — the
    /// end-to-end key-ID agreement check, counted per grant.
    std::uint64_t claims_matched = 0;
    std::uint64_t claims_mismatched = 0;
  };

  /// `kms` must outlive the fleet.
  explicit KmsClientFleet(KeyManagementService& kms);
  ~KmsClientFleet() override;

  // ---- sim::ClientWorkloadDriver ------------------------------------------
  void client_arrival(qkd::SimTime now,
                      const sim::ClientArrival& arrival) override;
  void client_departure(qkd::SimTime now,
                        const sim::ClientDeparture& departure) override;

  std::size_t active_clients() const { return active_; }
  /// Summed from the per-shard counter cells; safe from any thread.
  Stats stats() const;

 private:
  struct Member {
    ClientId id = 0;
    network::NodeId src = 0;
    network::NodeId dst = 0;
    unsigned qos = 0;
    /// The stream the ticker lives on (the member's shard's stream).
    sim::EventScheduler* stream = nullptr;
    std::size_t shard = 0;
    sim::EventScheduler::Handle ticker;
    bool active = false;
  };

  /// Every Stats field; each row's only store is one counter in counters_.
  static constexpr obs::CounterField<Stats> kCounters[] = {
      {"requests_issued", &Stats::requests_issued},
      {"granted", &Stats::granted},
      {"rejected", &Stats::rejected},
      {"shed", &Stats::shed},
      {"departed", &Stats::departed},
      {"claims_matched", &Stats::claims_matched},
      {"claims_mismatched", &Stats::claims_mismatched},
  };
  /// Adds one to `shard`'s cell of the counter storing `Member`.
  template <std::uint64_t Stats::*Member>
  void count(std::size_t shard) {
    counters_[obs::counter_row(kCounters, Member)].add(1, shard);
  }

  void issue_request(Member& member, std::size_t bits);

  KeyManagementService& kms_;
  std::vector<Member> members_;
  std::size_t active_ = 0;
  std::uint64_t arrivals_ = 0;  // names successive fleet members
  /// One counter per kCounters row, one cell per KMS shard.
  std::vector<obs::Counter> counters_;
};

}  // namespace qkd::kms
