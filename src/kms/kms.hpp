// Multi-tenant key management service: the subsystem that turns the
// keystore + trusted-relay mesh into a *service* shared by many client
// applications (the Q-KeyMaker key-server architecture; the paper's
// "millions of users" trajectory). Distilled key is only useful once it is
// delivered to cryptographic consumers — and sustained multi-client rates
// are bounded by computational load and fair scheduling, not just optics
// (Gilbert & Hamrick, "Secrecy, Computational Loads and Rates in Practical
// Quantum Cryptography").
//
// Shape of the service:
//
//  * Client registry. Applications register by name, bound to a
//    (src-node, dst-node) endpoint pair and a QoS class. get_key() asks
//    for end-to-end key; the grant arrives asynchronously (the KMS runs
//    entirely on EventScheduler deadlines) carrying a KeyBlock whose
//    key_id names the SAME bits on the peer endpoint — the claiming side
//    fetches its copy with get_key_with_id() (ETSI GS QKD 014 semantics:
//    get_key on the master side, get_key_with_key_IDs on the slave side).
//    Key-ID agreement is built on the keystore's mirrored-KeyPool
//    machinery: each endpoint pair owns two mirror-image delivered-key
//    pools driven through identical KeySupply call sequences, so both
//    ends derive the same key_id for the same bits.
//  * Admission control + backpressure. Each (pair, class) request queue is
//    bounded; a full queue rejects at get_key() time (kRejectedQueueFull)
//    instead of letting latency grow without bound.
//  * Weighted fair share across QoS classes. Per-pair deficit round robin:
//    each service round credits every backlogged class
//    weight x quantum_bits and serves within the credit, highest-priority
//    class first. Every backlogged class makes progress each round
//    (bounded wait, no starvation of low-priority clients) and a large
//    bulk request can never block a realtime one (no priority inversion —
//    the classes spend separate credit).
//  * Batching. All requests a round selects for one destination ride ONE
//    MeshSimulation relay frame (planned by plan_key_batch, materialized by
//    finalize_frame), paying the per-hop header+tag overhead once — the
//    hop-pad amortization that makes thousands of small grants affordable.
//  * Supply-event-driven reaction. On a link supply's kReplenished the KMS
//    immediately serves queues that stalled on dry pools (no waiting out
//    the retry backoff); sustained exhaustion (consecutive starved rounds)
//    sheds load, lowest-priority class first (kShed), so realtime clients
//    survive an eavesdropping-induced drought.
//  * One grant path. Every service round selects, plans one relay frame,
//    then settles: a starved plan requeues (shedding, backing off), a
//    successful one is finalized from the pair's own seeded rng and granted.
//  * Sharding. The service itself is a thin router over N KmsShards:
//    endpoint pairs hash (by unordered endpoint ids, so a pair and its
//    reverse co-locate) to shards, and each shard owns the COMPLETE grant
//    path of its pairs — mirrored pools, bounded queues, DRR state, claim
//    TTL ledger — and writes its own cell of every counter. Shards write
//    no other shared state; the router crosses the boundary only at
//    registration and the frame barrier, and stats are reads of the
//    cells. Constructed on a plain EventScheduler the service is ONE
//    shard that plans and settles each round inline (the deterministic
//    single-thread path); constructed on a sim::ShardedScheduler it has one
//    shard per scheduler shard, each servicing on its own stream in
//    parallel on the scheduler's worker pool, with rounds parked until the
//    window barrier plans them sequentially in global (src, dst) order and
//    fans settlement back out — so the per-client grant sequence for a
//    fixed seed is identical for ANY shard and lane count.
//
// The KMS is the topmost layer (src/kms links qkd_sim): it schedules onto
// the same EventScheduler the scenario engine scripts, exports per-class
// queue depth / grants / rejections / p99 grant latency through
// bind_metrics (the registry the TimelineRecorder and the alert engine
// read), and plugs into scripted days through kms::KmsClientFleet
// (ClientArrival/ClientDeparture actions).
// E19 (bench_kms) drives >= 1M requests from >= 1k clients through one
// scheduled run; the sharded sweep scales grants/s across cores.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/keystore/key_pool.hpp"
#include "src/network/key_transport.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/event_scheduler.hpp"

namespace qkd::sim {
class ShardedScheduler;
}  // namespace qkd::sim

namespace qkd::kms {

class KmsShard;       // internal: src/kms/shard.hpp
struct PairState;     // internal: one endpoint pair's shard-owned state
struct FrameJob;      // internal: a selected service round and its plan

// ---- QoS vocabulary --------------------------------------------------------

/// Service classes in priority order (0 = highest weight). kRealtime is
/// never shed; kBulk is the first to go when supply dries up.
enum class QosClass : unsigned { kRealtime = 0, kInteractive = 1, kBulk = 2 };
inline constexpr std::size_t kQosClassCount = 3;

const char* qos_class_name(QosClass qos);

// ---- Client registry -------------------------------------------------------

using ClientId = std::uint32_t;

struct ClientConfig {
  std::string name;              // appears in diagnostics
  network::NodeId src = 0;       // the endpoint this application runs on
  network::NodeId dst = 0;       // its peer application's endpoint
  QosClass qos = QosClass::kInteractive;
};

// ---- Grants ----------------------------------------------------------------

enum class GrantStatus {
  kGranted,            // bits + key_id delivered
  kRejectedQueueFull,  // admission control: (pair, class) queue at capacity
  kShed,               // dropped by sustained-exhaustion load shedding
  kDeparted,           // the client deregistered with the request queued
};

const char* grant_status_name(GrantStatus status);

struct Grant {
  ClientId client = 0;
  GrantStatus status = GrantStatus::kGranted;
  /// Names the same bits on both endpoints (kGranted only); the peer
  /// application claims its copy with get_key_with_id(key_id).
  std::uint64_t key_id = 0;
  qkd::BitVector bits;                      // the initiator's copy
  std::vector<network::NodeId> exposed_to;  // relays that saw the frame
  /// The delivering frame traversed a relay that was compromised at grant
  /// time (the mesh flags it; policy above decides whether to discard).
  bool compromised = false;
  qkd::SimTime requested_at = 0;
  qkd::SimTime granted_at = 0;
};

/// Invoked exactly once per get_key() call unless a callback throws, from
/// inside a scheduler event (or synchronously for admission rejections). In sharded-scheduler mode the
/// callback runs on the owning shard's lane: it may touch the requesting
/// client's own KMS surface (get_key / get_key_with_id on the same pair)
/// and any state partitioned the same way the KMS is, but no cross-shard
/// or global state. A throw aborts the run: it leaves run_until, and the
/// rounds its shard had not yet settled are dropped undelivered — no
/// request is ever granted twice.
using GrantCallback = std::function<void(const Grant&)>;

// ---- The service -----------------------------------------------------------

class KeyManagementService final {
 public:
  struct Config {
    /// Fair-share weights by QoS class index; each crediting pass of a
    /// round gives every backlogged class weight x quantum_bits of
    /// service, highest priority served first.
    std::array<unsigned, kQosClassCount> class_weights{8, 3, 1};
    std::size_t quantum_bits = 4096;

    /// Payload cap of one relay frame: a round keeps crediting passes
    /// going (work conservation — idle classes' capacity flows to the
    /// backlogged ones at the weighted ratio) until the frame is full or
    /// the queues are empty. The cap, not the credit, is what bounds a
    /// round, so weighted differentiation only appears under contention.
    std::size_t max_frame_bits = 64 * 1024;

    /// Admission cap per (endpoint pair, class) queue.
    std::size_t max_queue_per_class = 256;

    /// How long a pair's arrivals are collected before a service round
    /// batches them into one relay frame.
    qkd::SimTime batch_window = 10 * qkd::kMillisecond;

    /// Retry delay after a starved round (pools could not cover the
    /// frame); bounds the event rate of a drought.
    qkd::SimTime retry_backoff = 250 * qkd::kMillisecond;

    /// Consecutive starved rounds on a pair before load is shed,
    /// lowest-priority backlogged class first.
    std::size_t shed_after_starved_rounds = 4;

    /// How long an unclaimed peer copy is held for get_key_with_id before
    /// it is discarded (both mirrored pools have already consumed the
    /// blocks, so expiry cannot desynchronize them).
    qkd::SimTime claim_ttl = qkd::kMinute;

    /// Engine-backed meshes only: low-water mark installed on every link
    /// supply so kReplenished fires (0 leaves the supplies untouched and
    /// disables replenish wakeups).
    std::size_t link_low_water_bits = 4 * keystore::KeySupply::kQblockBits;

    /// Seeds the per-pair frame rngs that generate all granted key
    /// material (each pair's stream derives from (seed, src, dst), so
    /// grant bits depend neither on the scheduler nor on the shard count).
    std::uint64_t seed = 19;

    /// Grant-latency service-level objective: a grant delivered within
    /// this of its request counts into ClassStats::granted_within_slo
    /// (the "good" counter the alert engine's burn-rate rules divide by
    /// granted). Latency here is request-to-grant on the sim timeline.
    qkd::SimTime slo_grant_latency = 500 * qkd::kMillisecond;
  };

  struct ClassStats {
    std::uint64_t requests = 0;
    std::uint64_t granted = 0;
    /// Grants delivered within Config::slo_grant_latency — the SLO "good"
    /// counter (granted_within_slo <= granted always).
    std::uint64_t granted_within_slo = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed = 0;
    std::uint64_t departed = 0;
    std::uint64_t bits_granted = 0;
  };

  struct Stats {
    std::uint64_t service_rounds = 0;
    std::uint64_t transports = 0;      // relay frames sent (batching: <= grants)
    std::uint64_t starved_rounds = 0;  // frames the pools could not cover
    std::uint64_t shed_events = 0;     // times a class queue was dropped
    std::uint64_t replenish_wakeups = 0;
    std::uint64_t claims_fulfilled = 0;
    std::uint64_t claims_expired = 0;
    /// Bits of expired unclaimed peer copies redeposited into BOTH pair
    /// stores (never silently leaked).
    std::uint64_t bits_reclaimed = 0;
  };

  /// Snapshot of one endpoint pair's mirrored state, for invariant
  /// checkers: the fuzzer asserts src/dst agree on every field after every
  /// scenario event.
  struct PairInspection {
    network::NodeId src = 0;
    network::NodeId dst = 0;
    std::size_t src_available_bits = 0;
    std::size_t dst_available_bits = 0;
    std::uint64_t src_next_key_id = 0;
    std::uint64_t dst_next_key_id = 0;
    keystore::KeyPool::Stats src_stats;
    keystore::KeyPool::Stats dst_stats;
    std::size_t claims_outstanding = 0;
    std::array<std::size_t, kQosClassCount> queue_depths{};
  };

  /// Single-stream service: one shard runs every service round on
  /// `scheduler`, planning and settling each inline. The mesh and
  /// scheduler must outlive the service. Engine-backed meshes must be
  /// driven single-threaded (scheduler-dispatched run_link_batch, as
  /// ScenarioRunner does): the KMS subscribes to the link supplies and its
  /// callbacks are not thread-safe.
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::EventScheduler& scheduler, Config config);
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::EventScheduler& scheduler);

  /// Sharded-execution service: one KmsShard per scheduler shard, each
  /// servicing its pairs on its own stream, in parallel on the scheduler's
  /// worker pool. Relay frames are planned at the window barrier (the
  /// service registers a barrier task) in global (src, dst) order against
  /// the shared mesh, then finalized shard-locally from per-pair
  /// deterministic rngs. Registration, deregistration and every
  /// introspection accessor must be called with shard lanes parked (from
  /// the global stream or between runs); get_key / get_key_with_id may
  /// additionally be called from the owning shard's lane.
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::ShardedScheduler& sharded, Config config);
  KeyManagementService(network::MeshSimulation& mesh,
                       sim::ShardedScheduler& sharded);
  ~KeyManagementService();

  // ---- Registry -----------------------------------------------------------
  ClientId register_client(ClientConfig config);
  /// Queued requests of the departing client are drained with kDeparted.
  void deregister_client(ClientId id);
  std::size_t client_count() const { return live_clients_; }
  const ClientConfig& client(ClientId id) const;

  // ---- ETSI-014-style delivery -------------------------------------------
  /// Initiator side: asks for `bits` of end-to-end key for `id`'s endpoint
  /// pair. The callback fires with a kGranted grant (bits + key_id) once a
  /// service round delivers, or with a rejection status. Throws
  /// std::invalid_argument for bits == 0 or an unknown/departed client.
  void get_key(ClientId id, std::size_t bits, GrantCallback on_grant);

  /// The traced form: `trace` (a client span's context, possibly carried in
  /// off the wire) parents every grant-path span of this request —
  /// admission, the DRR service round, the mesh plan and hops, the grant.
  /// An invalid (default) context behaves exactly like the overload above.
  void get_key(ClientId id, std::size_t bits, GrantCallback on_grant,
               obs::TraceContext trace);

  /// Peer side: claims the peer copy of a granted key by its key_id. Only
  /// the peer endpoint's applications (registered on the reversed pair)
  /// and the granted client itself may claim — a co-tenant on the same
  /// pair cannot take another tenant's key. nullopt when the key_id is
  /// unknown, already claimed, expired, or not claimable by `id`. Both
  /// orderings of a pair hash to the same shard, so the claim never
  /// crosses a shard boundary.
  std::optional<keystore::KeyBlock> get_key_with_id(ClientId id,
                                                    std::uint64_t key_id);

  // ---- Sharding surface ---------------------------------------------------
  std::size_t shard_count() const { return shards_.size(); }
  /// Which shard owns the (unordered) endpoint pair {a, b}.
  std::size_t shard_of(network::NodeId a, network::NodeId b) const;
  /// The event stream the pair's service work runs on: its shard's stream
  /// in sharded-scheduler mode, the global scheduler otherwise. Client
  /// drivers arm their per-client tickers here so request issue runs on
  /// the same lane that serves it.
  sim::EventScheduler& stream_for_pair(network::NodeId src,
                                       network::NodeId dst);

  // ---- Observability ------------------------------------------------------
  /// Installs (or removes, with nullptr) the tracer the grant path records
  /// spans into. Shard spans land in the owning shard's cell; the caller
  /// should size the tracer with at least shard_count() cells. The mesh's
  /// tracer is NOT installed here — set it on the mesh explicitly if the
  /// relay legs should be recorded too.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Registers a collector exporting every counter by its table name,
  /// per-class queue depth and p99 grant latency, and per-pair pooled bits
  /// under `prefix`.
  /// It reads the same cells as the accessors below: safe from any thread
  /// while shard lanes grant.
  void bind_metrics(obs::MetricsRegistry& registry, std::string prefix);

  // ---- Introspection (aggregated across shards) ---------------------------
  // Counter, queue-depth and latency accessors return values summed from
  // the per-shard cells of the counters, gauges and latency histograms;
  // they write nothing, so any number of threads may call them
  // concurrently with shard-lane grants. inspect_pairs still walks shard
  // pair state and requires lanes parked.
  ClassStats class_stats(QosClass qos) const;
  Stats stats() const;
  const Config& config() const { return config_; }
  /// Requests waiting in `qos` queues across all endpoint pairs.
  std::size_t queue_depth(QosClass qos) const;
  double p99_grant_latency_s(QosClass qos) const;
  double mean_grant_latency_s(QosClass qos) const;
  /// True while some shard is in a shedding episode (cleared by its next
  /// successful round).
  bool shedding() const;
  /// One snapshot per live endpoint pair (ordered by (src, dst)).
  std::vector<PairInspection> inspect_pairs() const;

  // ---- Per-shard introspection (DRR fairness across shards) ---------------
  /// One shard's cells of the counters above (router-level counts, i.e.
  /// replenish_wakeups, land in shard 0's): the shards sum to stats().
  Stats shard_stats(std::size_t shard) const;
  ClassStats shard_class_stats(std::size_t shard, QosClass qos) const;

  /// Observer invoked for EVERY delivered Grant — granted, rejected, shed
  /// and departed alike — just before the client's own callback. In
  /// sharded-scheduler mode it runs on shard lanes concurrently and must
  /// only touch state partitioned by client/pair (see GrantCallback). The
  /// fuzz harness checks its invariants (compromise flagging,
  /// conservation) here without disturbing delivery.
  void set_grant_observer(GrantCallback observer) {
    grant_observer_ = std::move(observer);
  }

 private:
  friend class KmsShard;

  /// One endpoint pair's pooled-bits gauge cell: written (relaxed) by the
  /// owning shard after every deposit/withdraw, read by the metrics
  /// collector. Lives in a deque so addresses stay stable as pairs
  /// register; the deque itself is guarded by pool_gauge_mu_ (registration
  /// and collection only — never the grant path's inner loop).
  struct PairPoolGauge {
    network::NodeId src = 0;
    network::NodeId dst = 0;
    std::atomic<std::size_t> bits{0};
  };
  std::atomic<std::size_t>& pool_gauge_for(network::NodeId src,
                                           network::NodeId dst);

  struct ClientRecord {
    ClientConfig config;
    KmsShard* shard = nullptr;
    PairState* pair = nullptr;
    bool live = false;
  };

  /// Every Stats / ClassStats field and the name bind_metrics exports it
  /// under; each row's only store is its counter in counters_ (per class,
  /// class_counters_), with one cell per shard.
  static constexpr obs::CounterField<Stats> kStatsCounters[] = {
      {"service_rounds", &Stats::service_rounds},
      {"transports", &Stats::transports},
      {"starved_rounds", &Stats::starved_rounds},
      {"shed_events", &Stats::shed_events},
      {"replenish_wakeups", &Stats::replenish_wakeups},
      {"claims_fulfilled", &Stats::claims_fulfilled},
      {"claims_expired", &Stats::claims_expired},
      {"bits_reclaimed", &Stats::bits_reclaimed},
  };
  static constexpr obs::CounterField<ClassStats> kClassCounters[] = {
      {"requests", &ClassStats::requests},
      {"granted", &ClassStats::granted},
      {"granted_within_slo", &ClassStats::granted_within_slo},
      {"rejected_queue_full", &ClassStats::rejected_queue_full},
      {"shed", &ClassStats::shed},
      {"departed", &ClassStats::departed},
      {"bits_granted", &ClassStats::bits_granted},
  };
  void init_shards(std::size_t count);
  /// The grant path's only mesh access: inline on a plain scheduler, at
  /// the window barrier on a ShardedScheduler.
  void plan_frame(FrameJob& job);
  ClientRecord& live_client(ClientId id, const char* op);
  void on_supply_replenished(qkd::SimTime now);
  /// Barrier task (sharded-scheduler mode): plans every shard's parked
  /// service rounds against the mesh in global (src, dst) order, then fans
  /// finalization back out across shard lanes.
  void flush_frames(qkd::SimTime now);

  network::MeshSimulation& mesh_;
  sim::EventScheduler& scheduler_;            // the global stream
  sim::ShardedScheduler* sharded_ = nullptr;  // sharded-scheduler mode only
  Config config_;

  std::vector<std::unique_ptr<KmsShard>> shards_;
  std::vector<ClientRecord> clients_;
  std::size_t live_clients_ = 0;

  std::vector<obs::Counter> counters_;
  std::array<std::vector<obs::Counter>, kQosClassCount> class_counters_;
  /// Requests queued per QoS class, one cell per shard: each shard sets
  /// its own cell after every change to its queues.
  std::vector<obs::Gauge> queue_depth_;
  /// Request-to-grant latency in ns, one histogram per QoS class with one
  /// cell per shard (each shard records into its own cell).
  std::vector<obs::Histogram> grant_latency_;
  GrantCallback grant_observer_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<std::uint64_t> supply_subscriptions_;  // engine mode only
  std::mutex pool_gauge_mu_;
  std::deque<PairPoolGauge> pool_gauges_;
};

}  // namespace qkd::kms
