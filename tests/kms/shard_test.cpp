// The sharded KMS: pair-to-shard routing (reversed pairs co-locate),
// stats aggregation across shards, end-to-end grants on a ShardedScheduler
// — and the headline contracts: a fixed seed yields IDENTICAL per-client
// grant sequences for any shard count, any worker lane count and either
// scheduler, and a throwing grant callback never causes a second grant.
#include "src/kms/kms.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/network/key_service.hpp"
#include "src/sim/sharded_scheduler.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::NodeKind;
using network::Topology;

/// A relay hub with `pairs` disjoint endpoint pairs fanned around it, hot
/// enough (~1 Mb/s distilled per link) that supply never bounds the tests
/// that are about scheduling rather than starvation. Pair p is the ordered
/// endpoints (1 + 2p, 2 + 2p).
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

TEST(KmsSharded, ReversedPairsHashToTheSameShard) {
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  sim::ShardedScheduler sharded(scheduler, 5, nullptr);  // one lane
  MeshSimulation mesh(hot_fan(1), 7);
  KeyManagementService kms(mesh, sharded);
  ASSERT_EQ(kms.shard_count(), 5u);
  QKD_SEEDED_RNG(rng, 23);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<NodeId>(1 + rng.next_below(1000));
    const auto b = static_cast<NodeId>(1001 + rng.next_below(1000));
    const std::size_t shard = kms.shard_of(a, b);
    ASSERT_LT(shard, 5u);
    EXPECT_EQ(shard, kms.shard_of(b, a)) << a << "," << b;
    seen.insert(shard);
  }
  // 200 random pairs over 5 shards: a healthy hash occupies every shard.
  EXPECT_EQ(seen.size(), 5u);
}

/// Sharding on a one-lane ShardedScheduler is pure partitioning: grants
/// still flow, per-shard stats sum to the aggregate, and inspect_pairs
/// stays globally ordered.
TEST(KmsSharded, SingleStreamShardsPartitionAndAggregate) {
  constexpr std::size_t kPairs = 8;
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  sim::ShardedScheduler sharded(scheduler, 4, nullptr);  // one lane
  MeshSimulation mesh(hot_fan(kPairs), 7);
  mesh.step(20.0);
  KeyManagementService kms(mesh, sharded);

  std::size_t granted = 0;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto src = static_cast<NodeId>(1 + 2 * p);
    const auto dst = static_cast<NodeId>(2 + 2 * p);
    const ClientId id = kms.register_client(
        {"app-" + std::to_string(p), src, dst, QosClass::kInteractive});
    kms.get_key(id, 512, [&granted](const Grant& grant) {
      if (grant.status == GrantStatus::kGranted) ++granted;
    });
  }
  sharded.run_until(kSecond);
  EXPECT_EQ(granted, kPairs);

  // The shards partition the pairs (this topology/hash spreads them);
  // their per-shard counters sum to the aggregated view.
  std::map<std::size_t, std::size_t> pairs_per_shard;
  for (std::size_t p = 0; p < kPairs; ++p)
    ++pairs_per_shard[kms.shard_of(static_cast<NodeId>(1 + 2 * p),
                                   static_cast<NodeId>(2 + 2 * p))];
  EXPECT_GT(pairs_per_shard.size(), 1u);

  std::uint64_t shard_granted = 0;
  std::uint64_t shard_transports = 0;
  for (std::size_t s = 0; s < kms.shard_count(); ++s) {
    shard_granted +=
        kms.shard_class_stats(s, QosClass::kInteractive).granted;
    shard_transports += kms.shard_stats(s).transports;
  }
  EXPECT_EQ(shard_granted, kms.class_stats(QosClass::kInteractive).granted);
  EXPECT_EQ(shard_transports, kms.stats().transports);
  EXPECT_EQ(shard_granted, granted);

  const auto inspections = kms.inspect_pairs();
  ASSERT_EQ(inspections.size(), kPairs);
  for (std::size_t i = 1; i < inspections.size(); ++i)
    EXPECT_LT(std::make_pair(inspections[i - 1].src, inspections[i - 1].dst),
              std::make_pair(inspections[i].src, inspections[i].dst));
}

TEST(KmsSharded, EpochModeGrantsAndPeerClaimsEndToEnd) {
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  auto pool = std::make_shared<common::WorkerPool>(2);
  sim::ShardedScheduler sharded(scheduler, 2, pool);
  MeshSimulation mesh(hot_fan(2), 7);
  mesh.step(20.0);
  KeyManagementService kms(mesh, sharded);

  const ClientId alice =
      kms.register_client({"alice", 1, 2, QosClass::kInteractive});
  const ClientId bob =
      kms.register_client({"bob", 2, 1, QosClass::kInteractive});

  std::vector<Grant> grants;
  std::mutex mu;  // grant callbacks run on shard lanes
  kms.get_key(alice, 512, [&](const Grant& grant) {
    std::scoped_lock lock(mu);
    grants.push_back(grant);
  });
  EXPECT_TRUE(grants.empty()) << "grants arrive on scheduler deadlines";
  sharded.run_until(kSecond);

  ASSERT_EQ(grants.size(), 1u);
  ASSERT_EQ(grants[0].status, GrantStatus::kGranted);
  EXPECT_EQ(grants[0].bits.size(), 512u);

  // The peer (registered on the REVERSED pair — same shard by the
  // unordered hash) claims the same bits under the same key_id.
  const auto peer = kms.get_key_with_id(bob, grants[0].key_id);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->key_id, grants[0].key_id);
  EXPECT_TRUE(peer->bits == grants[0].bits);
  // Claimed is claimed.
  EXPECT_FALSE(kms.get_key_with_id(bob, grants[0].key_id).has_value());
  EXPECT_EQ(kms.stats().claims_fulfilled, 1u);
}

// ---- The determinism contract ----------------------------------------------

struct GrantEvent {
  GrantStatus status = GrantStatus::kGranted;
  std::uint64_t key_id = 0;
  qkd::BitVector bits;
  qkd::SimTime granted_at = 0;

  bool operator==(const GrantEvent& other) const {
    return status == other.status && key_id == other.key_id &&
           bits == other.bits && granted_at == other.granted_at;
  }
};

/// The `shards` value of run_workload that builds no ShardedScheduler: the
/// KMS runs on the plain EventScheduler.
constexpr std::size_t kPlainScheduler = 0;

/// Drives a fixed multi-pair, multi-class workload through a KMS on a
/// ShardedScheduler (`shards` shards on `lanes` lanes) or on the plain
/// scheduler, and returns every client's full grant sequence.
std::vector<std::vector<GrantEvent>> run_workload(std::size_t shards,
                                                  std::size_t lanes,
                                                  std::uint64_t seed) {
  constexpr std::size_t kPairs = 4;
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  std::optional<sim::ShardedScheduler> sharded;
  if (shards != kPlainScheduler)
    sharded.emplace(scheduler, shards,
                    std::make_shared<common::WorkerPool>(lanes));
  MeshSimulation mesh(hot_fan(kPairs), 7);
  mesh.step(30.0);
  KeyManagementService::Config config;
  config.seed = seed;
  std::optional<KeyManagementService> service;
  if (sharded)
    service.emplace(mesh, *sharded, config);
  else
    service.emplace(mesh, scheduler, config);
  KeyManagementService& kms = *service;

  struct Driven {
    ClientId id;
    NodeId src, dst;
    std::size_t bits;
  };
  std::vector<Driven> driven;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto src = static_cast<NodeId>(1 + 2 * p);
    const auto dst = static_cast<NodeId>(2 + 2 * p);
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      const ClientId id = kms.register_client(
          {"c" + std::to_string(p) + "-" + std::to_string(qos), src, dst,
           static_cast<QosClass>(qos)});
      driven.push_back({id, src, dst, 300u + 400u * qos});
    }
  }

  std::vector<std::vector<GrantEvent>> logs(driven.size());
  for (std::size_t c = 0; c < driven.size(); ++c) {
    const Driven& d = driven[c];
    // Each ticker lives on the stream that serves its pair; the grant
    // callback therefore writes logs[c] only from that pair's lane —
    // shard-disjoint, so no synchronization is needed.
    kms.stream_for_pair(d.src, d.dst)
        .every((c + 1) * kMillisecond, 20 * kMillisecond,
               [&kms, &logs, c, d](qkd::SimTime) {
                 kms.get_key(d.id, d.bits, [&logs, c](const Grant& grant) {
                   logs[c].push_back({grant.status, grant.key_id, grant.bits,
                                      grant.granted_at});
                 });
               });
  }
  if (sharded)
    sharded->run_until(2 * kSecond);
  else
    scheduler.run_until(2 * kSecond);
  return logs;
}

/// Same seed => same per-client grant sequence (status, key_id, bits,
/// grant time) no matter how the pairs are sharded or how many lanes
/// execute the shards. This is the acceptance gate for running tier-1
/// semantics on parallel hardware.
TEST(KmsSharded, GrantSequencesIdenticalForAnyShardAndLaneCount) {
  QKD_SEEDED_RNG(rng, 31);
  const std::uint64_t seed = rng.next_u64();
  const auto one_shard = run_workload(1, 1, seed);
  const auto four_shards = run_workload(4, 1, seed);
  const auto four_shards_threaded = run_workload(4, 2, seed);

  ASSERT_EQ(one_shard.size(), four_shards.size());
  std::size_t grants = 0;
  for (std::size_t c = 0; c < one_shard.size(); ++c) {
    EXPECT_EQ(one_shard[c], four_shards[c]) << "client " << c;
    EXPECT_EQ(one_shard[c], four_shards_threaded[c]) << "client " << c;
    grants += one_shard[c].size();
  }
  EXPECT_GT(grants, 100u) << "the workload must actually exercise grants";
}

/// The plain-scheduler KMS runs the same grant path as the sharded one and
/// only plans earlier (inline, not at the window barrier): on an unstarved
/// mesh both give every client the same (status, key_id, bits) sequence.
/// Grant times differ — a parked round settles at the barrier — so they
/// are not compared.
TEST(KmsSharded, PlainAndShardedSchedulersGrantTheSameSequence) {
  QKD_SEEDED_RNG(rng, 37);
  const std::uint64_t seed = rng.next_u64();
  const auto plain = run_workload(kPlainScheduler, 1, seed);
  const auto sharded = run_workload(1, 1, seed);

  ASSERT_EQ(plain.size(), sharded.size());
  std::size_t grants = 0;
  for (std::size_t c = 0; c < plain.size(); ++c) {
    ASSERT_EQ(plain[c].size(), sharded[c].size()) << "client " << c;
    for (std::size_t g = 0; g < plain[c].size(); ++g) {
      // First divergence only: one mismatch shifts everything after it.
      ASSERT_EQ(plain[c][g].status, sharded[c][g].status)
          << "client " << c << " grant " << g;
      ASSERT_EQ(plain[c][g].key_id, sharded[c][g].key_id)
          << "client " << c << " grant " << g;
      ASSERT_TRUE(plain[c][g].bits == sharded[c][g].bits)
          << "client " << c << " grant " << g;
    }
    grants += plain[c].size();
  }
  EXPECT_GT(grants, 100u) << "the workload must actually exercise grants";
}

TEST(KmsSharded, DifferentSeedsProduceDifferentKeyMaterial) {
  const auto a = run_workload(2, 1, 1);
  const auto b = run_workload(2, 1, 2);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    for (std::size_t g = 0; g < std::min(a[c].size(), b[c].size()); ++g)
      if (!(a[c][g].bits == b[c][g].bits)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

// ---- Failure paths ---------------------------------------------------------

/// A grant callback that throws aborts the run — the exception leaves
/// run_until — but leaves no settled round parked for the next barrier to
/// plan and grant again. After running on, every request was delivered at
/// most once, the granted counter equals the distinct requests granted,
/// and every pair's mirrored pools still agree.
TEST(KmsSharded, ThrowingGrantCallbackNeverGrantsTwice) {
  constexpr std::size_t kPairs = 4;
  constexpr std::size_t kThrowAtGrant = 20;
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  sim::ShardedScheduler sharded(scheduler, 2, nullptr);  // one lane
  MeshSimulation mesh(hot_fan(kPairs), 7);
  mesh.step(30.0);
  KeyManagementService kms(mesh, sharded);

  // One lane runs every stream and callback, so plain containers do.
  std::vector<std::size_t> deliveries;  // by request serial
  std::set<std::size_t> granted_requests;
  std::set<std::pair<ClientId, std::uint64_t>> granted_keys;
  std::size_t duplicate_keys = 0;
  bool thrown = false;
  for (std::size_t p = 0; p < kPairs; ++p) {
    const auto src = static_cast<NodeId>(1 + 2 * p);
    const auto dst = static_cast<NodeId>(2 + 2 * p);
    for (unsigned qos = 0; qos < kQosClassCount; ++qos) {
      const ClientId id = kms.register_client(
          {"c" + std::to_string(p) + "-" + std::to_string(qos), src, dst,
           static_cast<QosClass>(qos)});
      kms.stream_for_pair(src, dst).every(
          (p + 1) * kMillisecond, 20 * kMillisecond, [&, id](qkd::SimTime) {
            const std::size_t serial = deliveries.size();
            deliveries.push_back(0);
            kms.get_key(id, 256, [&, id, serial](const Grant& grant) {
              ++deliveries[serial];
              if (grant.status != GrantStatus::kGranted) return;
              granted_requests.insert(serial);
              if (!granted_keys.insert({id, grant.key_id}).second)
                ++duplicate_keys;
              if (!thrown && granted_keys.size() == kThrowAtGrant) {
                thrown = true;
                throw std::runtime_error("grant consumer failed");
              }
            });
          });
    }
  }

  EXPECT_THROW(sharded.run_until(kSecond), std::runtime_error);
  ASSERT_TRUE(thrown);
  sharded.run_until(2 * kSecond);

  for (std::size_t serial = 0; serial < deliveries.size(); ++serial)
    EXPECT_LE(deliveries[serial], 1u) << "request " << serial;
  EXPECT_EQ(duplicate_keys, 0u);
  std::uint64_t granted = 0;
  for (unsigned qos = 0; qos < kQosClassCount; ++qos)
    granted += kms.class_stats(static_cast<QosClass>(qos)).granted;
  EXPECT_EQ(granted, granted_requests.size());
  EXPECT_EQ(granted, granted_keys.size());
  EXPECT_GT(granted, 10 * kThrowAtGrant) << "the run must go on granting";
  for (const auto& pair : kms.inspect_pairs()) {
    EXPECT_EQ(pair.src_next_key_id, pair.dst_next_key_id);
    EXPECT_EQ(pair.src_available_bits, pair.dst_available_bits);
  }
}

/// Against the REAL protocol engine: the mesh's LinkKeyService
/// distills on the same shared worker pool the shards run on, frames
/// withdraw true hop pads at the barrier, and replenish wakeups cross from
/// the supply layer into shard streams.
TEST(KmsSharded, EpochModeRunsOnEngineBackedMeshWithSharedPool) {
  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  auto pool = std::make_shared<common::WorkerPool>(2);
  sim::ShardedScheduler sharded(scheduler, 2, pool);

  // A pulse rate the REAL pipeline can simulate in test time: one hub,
  // one endpoint pair, half-megaslot frames, 10 MHz clocking.
  Topology topo;
  const NodeId hub = topo.add_node("hub", NodeKind::kTrustedRelay);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e7;
  topo.add_link(hub, topo.add_node("a", NodeKind::kEndpoint), optics);
  topo.add_link(hub, topo.add_node("b", NodeKind::kEndpoint), optics);

  network::LinkKeyService::Config engine;
  engine.proto.frame_slots = 1 << 19;
  engine.pool = pool;  // one pool serves distillation AND shard execution
  MeshSimulation mesh(topo, 7, engine);
  mesh.step(0.5);  // ten frames of head start on both links

  KeyManagementService kms(mesh, sharded);

  // Distill on the global stream (the coordinator phase), as a scenario
  // would: the mesh is shared state and must never move during a shard
  // phase.
  scheduler.every(50 * kMillisecond, 50 * kMillisecond,
                  [&mesh](qkd::SimTime) { mesh.step(0.05); });

  const ClientId alice =
      kms.register_client({"alice", 1, 2, QosClass::kRealtime});
  std::mutex mu;
  std::vector<Grant> grants;
  kms.stream_for_pair(1, 2).every(
      200 * kMillisecond, 200 * kMillisecond, [&](qkd::SimTime) {
        kms.get_key(alice, 128, [&](const Grant& grant) {
          std::scoped_lock lock(mu);
          grants.push_back(grant);
        });
      });
  sharded.run_until(2 * kSecond);

  ASSERT_GE(grants.size(), 8u);
  for (const Grant& grant : grants)
    EXPECT_EQ(grant.status, GrantStatus::kGranted);
  EXPECT_GT(kms.stats().transports, 0u);
}

}  // namespace
}  // namespace qkd::kms
