// One KMS shard: the complete service state of a disjoint subset of
// endpoint pairs.
//
// KeyManagementService is a thin router over N of these (pairs hash to
// shards by their unordered endpoint ids, so a pair and its reverse always
// co-locate and get_key_with_id claims stay shard-local). EVERYTHING on the
// grant path lives here — the mirrored per-pair KeyPools, the bounded
// per-(pair, class) queues, the DRR deficit state, the TTL claim ledger —
// so shards write no shared state and need no locks; each one counts into
// its own cell of the service's counters. Each shard services its pairs on
// its own event stream (a ShardedScheduler shard stream, or the single
// global scheduler of a one-shard service), and the router only crosses
// the boundary at registration and the frame barrier.
//
// One grant path. service_round() SELECTS (DRR) a round and packages it
// as a FrameJob; the mesh plans the job's relay frame
// (MeshSimulation::plan_key_batch, with the pair's route cache); settle()
// then either requeues a starved round (shedding and backing off) or
// finalizes the frame from the pair's own deterministic rng and grants.
// Only the moment of planning depends on the scheduler:
//
//  * plain EventScheduler (one shard): the job is planned and settled
//    inline, inside the service event.
//  * ShardedScheduler: the job is parked in the shard's outbox; at the
//    window barrier the router plans every parked job against the shared
//    mesh sequentially in global (src, dst) order, then fans
//    finalize_outbox() -> settle() back out across shard lanes. Grant
//    content therefore depends only on pair-local history plus the
//    globally-ordered plan sequence — identical for any shard count and
//    any worker-lane count.
//
// This header is internal to src/kms (kms.hpp only forward-declares the
// types here); clients program against kms.hpp.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/kms/kms.hpp"

namespace qkd::kms {

struct Request {
  ClientId client = 0;
  std::size_t bits = 0;
  GrantCallback callback;
  qkd::SimTime requested_at = 0;
  /// The caller's trace (invalid for untraced requests): the parent every
  /// grant-path span of this request hangs under.
  obs::TraceContext trace;
};

/// An unclaimed peer copy. key_ids are monotonic per pair and claim_ttl is
/// constant, so a pair's claims deque is sorted by key_id AND by expiry:
/// lookup is a binary search, purge pops from the front, and a fulfilled
/// claim is tombstoned in place (`claimed`) until it reaches the front —
/// no node-based map on the grant path.
struct PendingClaim {
  std::uint64_t key_id = 0;
  keystore::KeyBlock block;
  ClientId initiator = 0;  // the granted client: may claim its own copy
  qkd::SimTime expires_at = 0;
  bool claimed = false;
};

/// One ordered (src, dst) endpoint pair's service state.
struct PairState {
  network::NodeId src = 0;
  network::NodeId dst = 0;
  /// Mirror-image delivered-key pools, one per endpoint: every frame's
  /// payload is deposited into both, every grant withdraws from both
  /// through identical calls, so key_ids agree end to end.
  keystore::KeyPool src_store;
  keystore::KeyPool dst_store;
  std::array<std::deque<Request>, kQosClassCount> queues;
  std::array<std::size_t, kQosClassCount> deficit_bits{};
  std::deque<PendingClaim> claims;
  /// Entries neither claimed nor purged — what claims.size() was before
  /// tombstoning (PairInspection::claims_outstanding).
  std::size_t live_claims = 0;
  /// Route memo for the planning phase (owned here so the mesh carries no
  /// per-pair state).
  network::MeshSimulation::RouteCache route_cache;
  /// The pair's own key-material stream, seeded from (Config::seed, src,
  /// dst) — advanced only by this pair's frames, so grant bits are
  /// independent of shard count, scheduler and finalize order.
  qkd::Rng frame_rng{0};
  sim::EventScheduler::Handle service_event;
  qkd::SimTime armed_for = -1;  // due time of service_event, -1 when idle
  std::size_t consecutive_starved = 0;
  /// Service-owned pooled-bits gauge cell (relaxed writes after every
  /// deposit/withdraw): lets the metrics collector read per-pair pool
  /// depth without walking shard pair state.
  std::atomic<std::size_t>* pool_gauge = nullptr;
};

/// A selected service round and its relay-frame plan. On a ShardedScheduler
/// it is parked between the shard's service event and the window barrier;
/// on a plain scheduler it lives only inside the service event.
struct FrameJob {
  PairState* pair = nullptr;
  std::vector<std::pair<unsigned, Request>> round;
  std::size_t payload_bits = 0;
  network::MeshSimulation::FramePlan plan;
  /// The service round's span context (adopted from the first traced
  /// request in the round): the barrier's mesh plan and the finalize spans
  /// parent under it, keeping the trace connected across the park.
  obs::TraceContext trace;
};

class KmsShard {
 public:
  /// `stream` is where this shard's service events run: a ShardedScheduler
  /// shard stream, or the service's global scheduler when it has one shard.
  KmsShard(KeyManagementService& service, std::size_t index,
           sim::EventScheduler& stream);
  ~KmsShard();
  KmsShard(const KmsShard&) = delete;
  KmsShard& operator=(const KmsShard&) = delete;

  sim::EventScheduler& stream() { return stream_; }

  /// Finds or creates the ordered pair's state (registration path; the
  /// pair vector stays sorted by (src, dst) and addresses stay stable).
  PairState& pair_for(network::NodeId src, network::NodeId dst);
  PairState* find_pair(network::NodeId src, network::NodeId dst);

  /// Admission + enqueue + arm (the get_key fast path). `now` is the
  /// shard stream's current time.
  void submit(PairState& pair, unsigned qos, Request request, qkd::SimTime now);

  /// The get_key_with_id walk: the claimant's own ordered pair first (only
  /// its own grant's peer copy — and a foreign key_id found there is
  /// DENIED, not retried on the reversed side), then the reversed pair
  /// (claimable by any peer-endpoint application).
  std::optional<keystore::KeyBlock> claim(PairState& own, PairState* reversed,
                                          std::uint64_t key_id,
                                          ClientId claimant, qkd::SimTime now);

  /// Drains a departing client's queued requests with kDeparted.
  void drain_departed(PairState& pair, ClientId id, qkd::SimTime now);

  /// Arms every backlogged pair for immediate service (replenish wakeup).
  /// Returns true if anything was armed.
  bool wake_backlogged(qkd::SimTime now);

  /// ShardedScheduler: appends the shard's parked jobs to `out` (barrier
  /// phase; the router plans them in global pair order; job addresses are
  /// stable until finalize_outbox).
  void collect_jobs(std::vector<FrameJob*>& out);
  /// ShardedScheduler: takes the outbox, then settles every planned job
  /// shard-locally on a worker lane. Jobs a throwing callback abandons are
  /// never re-collected, so no request is granted twice.
  void finalize_outbox(qkd::SimTime now);

  // ---- Introspection -------------------------------------------------------
  // The shard's counts and queue depths live in its cells of the service's
  // counters and gauges, read there from any thread. shedding() is a
  // relaxed atomic too; inspect_into walks pair state and requires shard
  // lanes parked.
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }
  void inspect_into(
      std::vector<KeyManagementService::PairInspection>& out) const;

 private:
  using Service = KeyManagementService;
  using ClassStats = Service::ClassStats;
  using Stats = Service::Stats;

  /// Adds `n` to this shard's cell of the service counter storing `Member`.
  template <std::uint64_t Stats::*Member>
  void count(std::uint64_t n = 1) {
    constexpr auto row = obs::counter_row(Service::kStatsCounters, Member);
    service_.counters_[row].add(n, index_);
  }
  template <std::uint64_t ClassStats::*Member>
  void count(std::size_t qos, std::uint64_t n = 1) {
    constexpr auto row = obs::counter_row(Service::kClassCounters, Member);
    service_.class_counters_[qos][row].add(n, index_);
  }
  /// Moves this shard's `qos` backlog by `delta` requests and publishes it
  /// in the shard's cell of the service's queue-depth gauge.
  void queued(std::size_t qos, std::ptrdiff_t delta) {
    queued_[qos] += delta;
    service_.queue_depth_[qos].set(queued_[qos], index_);
  }

  void arm_service(PairState& pair, qkd::SimTime when);
  void service_round(PairState& pair, qkd::SimTime now);
  std::vector<std::pair<unsigned, Request>> select_round(PairState& pair);
  /// A starved plan requeues, sheds and backs off; a successful one
  /// finalizes the frame and grants. Re-arms the pair while backlogged.
  void settle(FrameJob& job, qkd::SimTime now);
  void grant_round(PairState& pair,
                   std::vector<std::pair<unsigned, Request>>& round,
                   const network::MeshSimulation::TransportResult& frame,
                   qkd::SimTime now, obs::TraceContext trace);
  void shed_lowest_class(PairState& pair, qkd::SimTime now);
  void purge_expired_claims(PairState& pair, qkd::SimTime now);
  void finish(Request& request, std::size_t qos, GrantStatus status,
              qkd::SimTime now);
  static bool backlogged(const PairState& pair);
  obs::Tracer* tracer() const;

  KeyManagementService& service_;
  std::size_t index_ = 0;
  sim::EventScheduler& stream_;

  /// Sorted by (src, dst); unique_ptr keeps PairState addresses stable
  /// across insertions (registration only — never on the grant path).
  std::vector<std::unique_ptr<PairState>> pairs_;
  std::vector<FrameJob> outbox_;

  std::atomic<bool> shedding_{false};
  /// Requests in this shard's `qos` queues across all its pairs.
  std::array<std::int64_t, kQosClassCount> queued_{};
};

}  // namespace qkd::kms
