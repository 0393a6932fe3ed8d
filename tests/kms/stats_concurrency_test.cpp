// Cross-shard stats aggregation under concurrent grants: monitoring
// threads poll the KMS introspection surface (stats / class_stats / queue
// depth / latency quantiles / shedding) and a bound MetricsRegistry while
// shard lanes are actively granting on a ShardedScheduler. Every counter
// and queue depth is a per-shard obs cell and every read returns a fresh
// value summed from those cells, so any number of readers must be
// TSan-clean — the regression test for the observability layer's
// concurrency contract.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/kms/kms.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/sharded_scheduler.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::NodeKind;
using network::Topology;

constexpr std::size_t kPairs = 6;

/// Relay hub fanned out to `pairs` disjoint endpoint pairs, hot enough
/// that the workload is scheduling-bound (pair p = endpoints (1+2p, 2+2p)).
Topology hot_fan(std::size_t pairs) {
  Topology topo;
  const NodeId hub = topo.add_node("hub", NodeKind::kTrustedRelay);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e9;
  for (std::size_t p = 0; p < 2 * pairs; ++p) {
    const NodeId node =
        topo.add_node("e" + std::to_string(p), NodeKind::kEndpoint);
    topo.add_link(hub, node, optics);
  }
  return topo;
}

/// A three-lane sharded KMS on the hot fan, one periodic client per
/// (pair, class) counting its grants into `granted_cb`.
struct HotKms {
  qkd::SimClock clock;
  sim::EventScheduler scheduler{clock};
  std::shared_ptr<common::WorkerPool> pool =
      std::make_shared<common::WorkerPool>(3);
  sim::ShardedScheduler sharded{scheduler, 3, pool};
  MeshSimulation mesh{hot_fan(kPairs), 7};
  KeyManagementService kms{mesh, sharded};
  std::atomic<std::uint64_t> granted_cb{0};

  HotKms() {
    mesh.step(30.0);
    for (std::size_t p = 0; p < kPairs; ++p) {
      const auto src = static_cast<NodeId>(1 + 2 * p);
      const auto dst = static_cast<NodeId>(2 + 2 * p);
      for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
        const ClientId id = kms.register_client(
            {"c" + std::to_string(p) + "-" + std::to_string(qos), src, dst,
             static_cast<QosClass>(qos)});
        // Tickers live on the pair's own stream; grant callbacks run on
        // the owning shard's lane, concurrently across shards.
        kms.stream_for_pair(src, dst).every(
            (p + qos + 1) * kMillisecond, 15 * kMillisecond,
            [this, id](qkd::SimTime) {
              kms.get_key(id, 256, [this](const Grant& grant) {
                if (grant.status == GrantStatus::kGranted)
                  granted_cb.fetch_add(1, std::memory_order_relaxed);
              });
            });
      }
    }
  }
};

/// Every Stats / ClassStats field, for whole-struct comparisons.
std::array<std::uint64_t, 8> fields(const KeyManagementService::Stats& s) {
  return {s.service_rounds,   s.transports,     s.starved_rounds,
          s.shed_events,      s.replenish_wakeups, s.claims_fulfilled,
          s.claims_expired,   s.bits_reclaimed};
}
std::array<std::uint64_t, 7> fields(const KeyManagementService::ClassStats& c) {
  return {c.requests, c.granted,  c.granted_within_slo, c.rejected_queue_full,
          c.shed,     c.departed, c.bits_granted};
}

template <std::size_t N>
void add_into(std::array<std::uint64_t, N>& total,
              const std::array<std::uint64_t, N>& part) {
  for (std::size_t i = 0; i < N; ++i) total[i] += part[i];
}

TEST(KmsStatsConcurrency, AggregationIsSafeWhileShardLanesGrant) {
  HotKms h;
  KeyManagementService& kms = h.kms;
  obs::MetricsRegistry registry(kms.shard_count());
  kms.bind_metrics(registry, "kms");

  // A monitoring thread polling every read surface. It must never crash,
  // race, or observe a counter that moves backwards. (Two counters are
  // read at different instants, so relations between them are checked
  // only once the lanes are quiesced.)
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread monitor([&] {
    KeyManagementService::Stats last{};
    std::uint64_t last_granted = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const KeyManagementService::Stats stats = kms.stats();
      ASSERT_GE(stats.service_rounds, last.service_rounds)
          << "service_rounds moved backwards";
      ASSERT_GE(stats.starved_rounds, last.starved_rounds)
          << "starved_rounds moved backwards";
      last = stats;
      std::uint64_t granted = 0;
      for (unsigned qos = 0; qos < kQosClassCount; ++qos)
        granted += kms.class_stats(static_cast<QosClass>(qos)).granted;
      ASSERT_GE(granted, last_granted) << "granted count moved backwards";
      last_granted = granted;
      (void)kms.p99_grant_latency_s(QosClass::kInteractive);
      (void)kms.shedding();
      // The registry path reads the same counter cells by the same table.
      const auto samples = registry.snapshot();
      ASSERT_FALSE(samples.empty());
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  h.sharded.run_until(2 * kSecond);
  done.store(true);
  monitor.join();

  EXPECT_GT(polls.load(), 0u);
  EXPECT_GT(h.granted_cb.load(), 50u) << "workload must actually grant";
  // Quiesced now: the aggregate equals what the callbacks observed, and
  // the per-shard reads sum to the aggregate in every field.
  std::uint64_t granted = 0;
  for (unsigned qos = 0; qos < kQosClassCount; ++qos)
    granted += kms.class_stats(static_cast<QosClass>(qos)).granted;
  EXPECT_EQ(granted, h.granted_cb.load());
  const KeyManagementService::Stats quiesced = kms.stats();
  EXPECT_LE(quiesced.starved_rounds, quiesced.service_rounds);

  std::array<std::uint64_t, 8> shard_sum{};
  for (std::size_t s = 0; s < kms.shard_count(); ++s)
    add_into(shard_sum, fields(kms.shard_stats(s)));
  EXPECT_EQ(shard_sum, fields(kms.stats()));
  EXPECT_THROW(kms.shard_stats(kms.shard_count()), std::out_of_range);
  for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
    const auto cls = static_cast<QosClass>(qos);
    std::array<std::uint64_t, 7> class_sum{};
    for (std::size_t s = 0; s < kms.shard_count(); ++s)
      add_into(class_sum, fields(kms.shard_class_stats(s, cls)));
    EXPECT_EQ(class_sum, fields(kms.class_stats(cls))) << qos_class_name(cls);
  }
}

/// Two monitors at once: reads must not write shared state, so concurrent
/// readers are as safe as one.
TEST(KmsStatsConcurrency, TwoReadersWhileShardLanesGrant) {
  HotKms h;
  KeyManagementService& kms = h.kms;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  auto monitor = [&] {
    std::uint64_t last_granted = 0;
    while (!done.load(std::memory_order_relaxed)) {
      (void)kms.stats();
      std::uint64_t granted = 0;
      for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
        granted += kms.class_stats(static_cast<QosClass>(qos)).granted;
        // Queue depth is per-shard gauge cells, as safe to read as counters.
        (void)kms.queue_depth(static_cast<QosClass>(qos));
      }
      ASSERT_GE(granted, last_granted) << "granted count moved backwards";
      last_granted = granted;
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread first(monitor);
  std::thread second(monitor);

  h.sharded.run_until(2 * kSecond);
  done.store(true);
  first.join();
  second.join();

  EXPECT_GT(polls.load(), 1u);
  EXPECT_GT(h.granted_cb.load(), 50u) << "workload must actually grant";
  std::uint64_t granted = 0;
  for (unsigned qos = 0; qos < kQosClassCount; ++qos)
    granted += kms.class_stats(static_cast<QosClass>(qos)).granted;
  EXPECT_EQ(granted, h.granted_cb.load());
}

}  // namespace
}  // namespace qkd::kms
