#include "src/kms/kms.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/kms/shard.hpp"
#include "src/network/key_service.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace qkd::kms {

const char* qos_class_name(QosClass qos) {
  switch (qos) {
    case QosClass::kRealtime: return "realtime";
    case QosClass::kInteractive: return "interactive";
    case QosClass::kBulk: return "bulk";
  }
  return "?";
}

const char* grant_status_name(GrantStatus status) {
  switch (status) {
    case GrantStatus::kGranted: return "granted";
    case GrantStatus::kRejectedQueueFull: return "rejected-queue-full";
    case GrantStatus::kShed: return "shed";
    case GrantStatus::kDeparted: return "departed";
  }
  return "?";
}

// ---- Construction ----------------------------------------------------------

void KeyManagementService::init_shards(std::size_t count) {
  if (config_.quantum_bits == 0)
    throw std::invalid_argument("KeyManagementService: quantum_bits == 0");
  if (config_.max_frame_bits == 0)
    throw std::invalid_argument("KeyManagementService: max_frame_bits == 0");
  for (unsigned weight : config_.class_weights)
    if (weight == 0)
      throw std::invalid_argument(
          "KeyManagementService: every class weight must be >= 1 "
          "(a zero-weight class would starve)");
  shards_.reserve(count);
  for (std::size_t s = 0; s < count; ++s)
    shards_.push_back(std::make_unique<KmsShard>(
        *this, s,
        sharded_ != nullptr ? sharded_->shard_stream(s) : scheduler_));
  for (std::size_t row = 0; row < std::size(kStatsCounters); ++row)
    counters_.emplace_back(count);
  for (auto& class_counters : class_counters_)
    for (std::size_t row = 0; row < std::size(kClassCounters); ++row)
      class_counters.emplace_back(count);
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    queue_depth_.emplace_back(count);
    grant_latency_.emplace_back(count);
  }
  if (sharded_ != nullptr)
    sharded_->add_barrier_task(
        [this](qkd::SimTime now) { flush_frames(now); });
  // Engine-backed meshes announce replenishment through each link's
  // KeySupply; arm the low-water machinery and wake stalled queues on it.
  if (auto* service = mesh_.key_service();
      service != nullptr && config_.link_low_water_bits > 0) {
    for (std::size_t id = 0; id < service->supply_count(); ++id) {
      auto& supply = service->supply(id);
      supply.set_low_water_bits(config_.link_low_water_bits);
      supply_subscriptions_.push_back(
          supply.subscribe([this](const keystore::SupplyEvent& event) {
            if (event.kind == keystore::SupplyEventKind::kReplenished)
              on_supply_replenished(scheduler_.now());
          }));
    }
  }
}

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::EventScheduler& scheduler,
                                           Config config)
    : mesh_(mesh), scheduler_(scheduler), config_(config) {
  init_shards(1);
}

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::EventScheduler& scheduler)
    : KeyManagementService(mesh, scheduler, Config()) {}

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::ShardedScheduler& sharded,
                                           Config config)
    : mesh_(mesh),
      scheduler_(sharded.global()),
      sharded_(&sharded),
      config_(config) {
  init_shards(sharded.shard_count());
}

KeyManagementService::KeyManagementService(network::MeshSimulation& mesh,
                                           sim::ShardedScheduler& sharded)
    : KeyManagementService(mesh, sharded, Config()) {}

KeyManagementService::~KeyManagementService() {
  // Shards cancel their own pairs' service events; the supply
  // subscriptions are the only router-held external hooks.
  if (auto* service = mesh_.key_service()) {
    for (std::size_t id = 0; id < supply_subscriptions_.size(); ++id)
      service->supply(id).unsubscribe(supply_subscriptions_[id]);
  }
}

// ---- Sharding --------------------------------------------------------------

std::size_t KeyManagementService::shard_of(network::NodeId a,
                                           network::NodeId b) const {
  // Hash the UNORDERED pair so (src, dst) and (dst, src) land on the same
  // shard — get_key_with_id's reversed-pair claim never crosses shards.
  const network::NodeId lo = std::min(a, b);
  const network::NodeId hi = std::max(a, b);
  std::uint64_t state = (static_cast<std::uint64_t>(lo) << 32) | hi;
  return static_cast<std::size_t>(qkd::splitmix64(state) % shards_.size());
}

sim::EventScheduler& KeyManagementService::stream_for_pair(
    network::NodeId src, network::NodeId dst) {
  return shards_[shard_of(src, dst)]->stream();
}

void KeyManagementService::plan_frame(FrameJob& job) {
  job.plan = mesh_.plan_key_batch(job.pair->src, job.pair->dst,
                                  job.payload_bits, &job.pair->route_cache,
                                  job.trace);
}

void KeyManagementService::flush_frames(qkd::SimTime now) {
  std::vector<FrameJob*> jobs;
  for (const auto& shard : shards_) shard->collect_jobs(jobs);
  if (jobs.empty()) return;
  // Plan in global (src, dst) order: the mesh (pool levels, reroute
  // accounting, engine pad withdrawals) sees the SAME sequence no matter
  // how the pairs are sharded. A pair with several parked rounds keeps
  // their chronological order (one shard owns a pair, so its outbox order
  // is that order, and the sort is stable).
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const FrameJob* a, const FrameJob* b) {
                     return std::make_pair(a->pair->src, a->pair->dst) <
                            std::make_pair(b->pair->src, b->pair->dst);
                   });
  for (FrameJob* job : jobs) plan_frame(*job);
  // Fan the settlement back out: grants, requeues and re-arms are all
  // shard-local, so every shard finalizes on its own lane.
  sharded_->pool().parallel_for(
      shards_.size(),
      [this, now](std::size_t s) { shards_[s]->finalize_outbox(now); });
}

// ---- Registry --------------------------------------------------------------

ClientId KeyManagementService::register_client(ClientConfig config) {
  if (config.src == config.dst)
    throw std::invalid_argument("KeyManagementService: src == dst for \"" +
                                config.name + "\"");
  if (static_cast<std::size_t>(config.qos) >= kQosClassCount)
    throw std::invalid_argument(
        "KeyManagementService: unknown QoS class for \"" + config.name +
        "\"");
  ClientRecord record;
  record.shard = shards_[shard_of(config.src, config.dst)].get();
  record.pair = &record.shard->pair_for(config.src, config.dst);
  record.config = std::move(config);
  record.live = true;
  clients_.push_back(std::move(record));
  ++live_clients_;
  return static_cast<ClientId>(clients_.size() - 1);
}

KeyManagementService::ClientRecord& KeyManagementService::live_client(
    ClientId id, const char* op) {
  if (id >= clients_.size() || !clients_[id].live)
    throw std::invalid_argument(std::string("KeyManagementService::") + op +
                                ": unknown or departed client " +
                                std::to_string(id));
  return clients_[id];
}

void KeyManagementService::deregister_client(ClientId id) {
  ClientRecord& record = live_client(id, "deregister_client");
  record.live = false;
  --live_clients_;
  // Drain the departing client's queued requests so callers never wait on
  // a grant that can no longer arrive.
  record.shard->drain_departed(*record.pair, id, record.shard->stream().now());
}

const ClientConfig& KeyManagementService::client(ClientId id) const {
  if (id >= clients_.size())
    throw std::invalid_argument("KeyManagementService::client: unknown id " +
                                std::to_string(id));
  return clients_[id].config;
}

// ---- Delivery --------------------------------------------------------------

void KeyManagementService::get_key(ClientId id, std::size_t bits,
                                   GrantCallback on_grant) {
  get_key(id, bits, std::move(on_grant), obs::TraceContext{});
}

void KeyManagementService::get_key(ClientId id, std::size_t bits,
                                   GrantCallback on_grant,
                                   obs::TraceContext trace) {
  if (bits == 0)
    throw std::invalid_argument("KeyManagementService::get_key: bits == 0");
  if (!on_grant)
    throw std::invalid_argument(
        "KeyManagementService::get_key: empty callback");
  ClientRecord& record = live_client(id, "get_key");
  const qkd::SimTime now = record.shard->stream().now();
  Request request;
  request.client = id;
  request.bits = bits;
  request.callback = std::move(on_grant);
  request.requested_at = now;
  request.trace = trace;
  record.shard->submit(*record.pair,
                       static_cast<unsigned>(record.config.qos),
                       std::move(request), now);
}

std::optional<keystore::KeyBlock> KeyManagementService::get_key_with_id(
    ClientId id, std::uint64_t key_id) {
  ClientRecord& record = live_client(id, "get_key_with_id");
  // A claim in the claimant's own ordered pair is only its own grant's
  // peer copy (an initiator retrieving both halves in-process); a claim in
  // the REVERSED pair is claimable by any application at the peer endpoint
  // (the ETSI slave side registers dst->src). A co-tenant on the same
  // pair never gets another tenant's key. Both orderings live on the same
  // shard (unordered hash), so the whole walk is shard-local.
  return record.shard->claim(
      *record.pair,
      record.shard->find_pair(record.config.dst, record.config.src), key_id,
      id, record.shard->stream().now());
}

void KeyManagementService::on_supply_replenished(qkd::SimTime now) {
  // A drought just ended: serve stalled queues immediately instead of
  // waiting out the retry backoff.
  bool woke = false;
  for (const auto& shard : shards_)
    if (shard->wake_backlogged(now)) woke = true;
  if (woke)
    counters_[obs::counter_row(kStatsCounters, &Stats::replenish_wakeups)]
        .add(1);
}

std::atomic<std::size_t>& KeyManagementService::pool_gauge_for(
    network::NodeId src, network::NodeId dst) {
  std::lock_guard<std::mutex> lock(pool_gauge_mu_);
  for (PairPoolGauge& gauge : pool_gauges_)
    if (gauge.src == src && gauge.dst == dst) return gauge.bits;
  PairPoolGauge& gauge = pool_gauges_.emplace_back();
  gauge.src = src;
  gauge.dst = dst;
  return gauge.bits;
}

// ---- Observability ---------------------------------------------------------

void KeyManagementService::bind_metrics(obs::MetricsRegistry& registry,
                                        std::string prefix) {
  registry.add_collector([this, prefix = std::move(prefix)](
                             obs::MetricsRegistry::Collect& out) {
    for (std::size_t row = 0; row < std::size(kStatsCounters); ++row)
      out.counter(prefix + "_" + kStatsCounters[row].name,
                  counters_[row].value());
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
      const auto cls = static_cast<QosClass>(qos);
      const std::string base = prefix + "_" + qos_class_name(cls) + "_";
      for (std::size_t row = 0; row < std::size(kClassCounters); ++row)
        out.counter(base + kClassCounters[row].name,
                    class_counters_[qos][row].value());
      out.gauge(base + "queue_depth", static_cast<double>(queue_depth(cls)));
      out.gauge(base + "p99_grant_latency_s", p99_grant_latency_s(cls));
    }
    // Per-pair pooled bits: each cell is a relaxed atomic the owning shard
    // refreshes after every deposit/withdraw, so this read is safe while
    // lanes are mid-grant (same contract as the class counters above).
    std::lock_guard<std::mutex> lock(pool_gauge_mu_);
    for (const PairPoolGauge& gauge : pool_gauges_)
      out.gauge(prefix + "_pair" + std::to_string(gauge.src) + "_" +
                    std::to_string(gauge.dst) + "_pool_bits",
                static_cast<double>(
                    gauge.bits.load(std::memory_order_relaxed)));
  });
}

// ---- Introspection ---------------------------------------------------------

KeyManagementService::ClassStats KeyManagementService::class_stats(
    QosClass qos) const {
  return obs::read_counters(kClassCounters,
                            class_counters_.at(static_cast<std::size_t>(qos)));
}

KeyManagementService::Stats KeyManagementService::stats() const {
  return obs::read_counters(kStatsCounters, counters_);
}

KeyManagementService::Stats KeyManagementService::shard_stats(
    std::size_t shard) const {
  return obs::read_counters(kStatsCounters, counters_, shard);
}

KeyManagementService::ClassStats KeyManagementService::shard_class_stats(
    std::size_t shard, QosClass qos) const {
  return obs::read_counters(kClassCounters,
                            class_counters_.at(static_cast<std::size_t>(qos)),
                            shard);
}

std::size_t KeyManagementService::queue_depth(QosClass qos) const {
  return static_cast<std::size_t>(
      queue_depth_.at(static_cast<std::size_t>(qos)).value());
}

double KeyManagementService::p99_grant_latency_s(QosClass qos) const {
  return grant_latency_.at(static_cast<std::size_t>(qos)).quantile(0.99) /
         1e9;
}

double KeyManagementService::mean_grant_latency_s(QosClass qos) const {
  const obs::Histogram& latency =
      grant_latency_.at(static_cast<std::size_t>(qos));
  const std::uint64_t count = latency.count();
  if (count == 0) return 0.0;
  return sim_to_seconds(static_cast<qkd::SimTime>(latency.sum())) /
         static_cast<double>(count);
}

bool KeyManagementService::shedding() const {
  for (const auto& shard : shards_)
    if (shard->shedding()) return true;
  return false;
}

std::vector<KeyManagementService::PairInspection>
KeyManagementService::inspect_pairs() const {
  std::vector<PairInspection> out;
  for (const auto& shard : shards_) shard->inspect_into(out);
  std::sort(out.begin(), out.end(),
            [](const PairInspection& a, const PairInspection& b) {
              return std::make_pair(a.src, a.dst) < std::make_pair(b.src, b.dst);
            });
  return out;
}

}  // namespace qkd::kms
