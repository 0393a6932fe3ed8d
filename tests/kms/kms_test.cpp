// The multi-tenant key management service: registry, ETSI-014-style
// get_key / get_key_with_id key-ID agreement, admission control, weighted
// fair share (bounded wait, no priority inversion), same-destination
// batching, supply-event wakeups, and sustained-exhaustion shedding.
#include "src/kms/kms.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "src/network/key_service.hpp"

namespace qkd::kms {
namespace {

using network::MeshSimulation;
using network::NodeId;
using network::NodeKind;
using network::Topology;

/// relay 0 in the middle, endpoints 1 and 2 — with optics hot enough
/// (~1 Mb/s distilled per link) that supply never bounds the tests that
/// are about scheduling rather than starvation.
Topology hot_star() {
  Topology topo;
  const NodeId relay = topo.add_node("relay", NodeKind::kTrustedRelay);
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  qkd::optics::LinkParams optics;
  optics.fiber_km = 1.0;
  optics.pulse_rate_hz = 1e9;
  topo.add_link(relay, a, optics);
  topo.add_link(relay, b, optics);
  return topo;
}

struct Harness {
  explicit Harness(KeyManagementService::Config config = {},
                   double prefill_s = 20.0)
      : mesh(hot_star(), 77), scheduler(clock), kms(mesh, scheduler, config) {
    mesh.step(prefill_s);
  }

  MeshSimulation mesh;
  qkd::SimClock clock;
  sim::EventScheduler scheduler;
  KeyManagementService kms;
};

TEST(Kms, GetKeyGrantsMatchingKeyIdAndBitsOnBothEnds) {
  Harness h;
  const ClientId alice =
      h.kms.register_client({"alice-app", 1, 2, QosClass::kInteractive});
  const ClientId bob =
      h.kms.register_client({"bob-app", 2, 1, QosClass::kInteractive});

  std::vector<Grant> grants;
  h.kms.get_key(alice, 512, [&](const Grant& g) { grants.push_back(g); });
  EXPECT_TRUE(grants.empty()) << "grants arrive on scheduler deadlines";
  h.scheduler.run_for(kSecond);

  ASSERT_EQ(grants.size(), 1u);
  const Grant& grant = grants[0];
  ASSERT_EQ(grant.status, GrantStatus::kGranted);
  EXPECT_NE(grant.key_id, 0u);
  EXPECT_EQ(grant.bits.size(), 512u);
  ASSERT_EQ(grant.exposed_to.size(), 1u);  // the relay saw the frame
  EXPECT_EQ(grant.exposed_to[0], 0u);

  // A co-tenant on the SAME pair is not the peer endpoint: it must not be
  // able to take alice's key (multi-tenant isolation), and probing does
  // not consume the claim.
  const ClientId rival =
      h.kms.register_client({"rival-app", 1, 2, QosClass::kInteractive});
  EXPECT_FALSE(h.kms.get_key_with_id(rival, grant.key_id).has_value());

  // The peer application (registered on the reversed pair) claims the same
  // bits by the same id; a second claim finds nothing.
  const auto peer = h.kms.get_key_with_id(bob, grant.key_id);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->key_id, grant.key_id);
  EXPECT_TRUE(peer->bits == grant.bits);
  EXPECT_FALSE(h.kms.get_key_with_id(bob, grant.key_id).has_value());
  EXPECT_EQ(h.kms.stats().claims_fulfilled, 1u);
}

TEST(Kms, AdmissionControlRejectsBeyondQueueCapacity) {
  KeyManagementService::Config config;
  config.max_queue_per_class = 4;
  Harness h(config);
  const ClientId client =
      h.kms.register_client({"bursty", 1, 2, QosClass::kBulk});

  std::size_t granted = 0, rejected = 0;
  for (int i = 0; i < 7; ++i) {
    h.kms.get_key(client, 128, [&](const Grant& g) {
      if (g.status == GrantStatus::kGranted) ++granted;
      if (g.status == GrantStatus::kRejectedQueueFull) ++rejected;
    });
  }
  // The overflow rejections are synchronous backpressure...
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(granted, 0u);
  // ...and the admitted requests are all served.
  h.scheduler.run_for(kSecond);
  EXPECT_EQ(granted, 4u);
  EXPECT_EQ(h.kms.class_stats(QosClass::kBulk).rejected_queue_full, 3u);
}

TEST(Kms, WeightedFairShareBoundsEveryClassAndOrdersLatencyByWeight) {
  // Small quantum and a tight frame cap so one round cannot drain a whole
  // queue: classes must share rounds for many windows, which is where the
  // weighted differentiation shows.
  KeyManagementService::Config config;
  config.quantum_bits = 512;
  config.class_weights = {4, 2, 1};
  config.max_queue_per_class = 64;
  config.max_frame_bits = 4096;
  Harness h(config);
  const ClientId rt =
      h.kms.register_client({"rt", 1, 2, QosClass::kRealtime});
  const ClientId it =
      h.kms.register_client({"it", 1, 2, QosClass::kInteractive});
  const ClientId bulk =
      h.kms.register_client({"bulk", 1, 2, QosClass::kBulk});

  constexpr std::size_t kPerClass = 40;
  std::array<std::size_t, kQosClassCount> served{};
  for (std::size_t i = 0; i < kPerClass; ++i) {
    for (ClientId id : {rt, it, bulk}) {
      h.kms.get_key(id, 512, [&served, &h, id](const Grant& g) {
        if (g.status == GrantStatus::kGranted)
          ++served[static_cast<std::size_t>(h.kms.client(id).qos)];
      });
    }
  }
  h.scheduler.run_for(kMinute);

  // Bounded wait: every class is fully served, none starved.
  EXPECT_EQ(served[0], kPerClass);
  EXPECT_EQ(served[1], kPerClass);
  EXPECT_EQ(served[2], kPerClass);
  // Weighted: grant latency orders by class weight.
  const double rt_mean = h.kms.mean_grant_latency_s(QosClass::kRealtime);
  const double it_mean = h.kms.mean_grant_latency_s(QosClass::kInteractive);
  const double bulk_mean = h.kms.mean_grant_latency_s(QosClass::kBulk);
  EXPECT_LT(rt_mean, it_mean);
  EXPECT_LT(it_mean, bulk_mean);
  EXPECT_LE(h.kms.p99_grant_latency_s(QosClass::kRealtime),
            h.kms.p99_grant_latency_s(QosClass::kBulk));
  // Batching: many grants rode far fewer relay frames.
  EXPECT_LT(h.kms.stats().transports, 3 * kPerClass);
  EXPECT_GT(h.kms.stats().transports, 0u);
}

TEST(Kms, LargeBulkRequestCannotBlockRealtime) {
  KeyManagementService::Config config;
  config.quantum_bits = 256;  // bulk credit: 256 bits/pass
  config.class_weights = {4, 2, 1};
  config.max_frame_bits = 2048;  // contention: rounds fill before bulk fits
  Harness h(config);
  const ClientId bulk =
      h.kms.register_client({"bulk", 1, 2, QosClass::kBulk});
  const ClientId rt = h.kms.register_client({"rt", 1, 2, QosClass::kRealtime});

  // The big bulk ask needs 8 rounds of credit accumulation; realtime
  // requests submitted after it must not wait for it (no inversion).
  std::vector<SimTime> rt_granted_at;
  SimTime bulk_granted_at = -1;
  h.kms.get_key(bulk, 2048, [&](const Grant& g) {
    ASSERT_EQ(g.status, GrantStatus::kGranted);
    bulk_granted_at = g.granted_at;
  });
  for (int i = 0; i < 4; ++i) {
    h.kms.get_key(rt, 512, [&](const Grant& g) {
      ASSERT_EQ(g.status, GrantStatus::kGranted);
      rt_granted_at.push_back(g.granted_at);
    });
  }
  h.scheduler.run_for(kMinute);

  ASSERT_EQ(rt_granted_at.size(), 4u);
  ASSERT_GE(bulk_granted_at, 0);
  for (SimTime t : rt_granted_at) EXPECT_LT(t, bulk_granted_at);
}

TEST(Kms, SustainedExhaustionShedsLowestPriorityFirstAndRecovers) {
  KeyManagementService::Config config;
  config.shed_after_starved_rounds = 2;
  config.retry_backoff = 100 * kMillisecond;
  Harness h(config, /*prefill_s=*/0.0);  // pools empty: a full drought
  const ClientId rt = h.kms.register_client({"rt", 1, 2, QosClass::kRealtime});
  const ClientId it =
      h.kms.register_client({"it", 1, 2, QosClass::kInteractive});
  const ClientId bulk =
      h.kms.register_client({"bulk", 1, 2, QosClass::kBulk});

  std::array<std::size_t, kQosClassCount> shed{}, granted{};
  const auto counter = [&](const Grant& g) {
    const auto qos = static_cast<std::size_t>(h.kms.client(g.client).qos);
    if (g.status == GrantStatus::kShed) ++shed[qos];
    if (g.status == GrantStatus::kGranted) ++granted[qos];
  };
  for (int i = 0; i < 8; ++i) {
    h.kms.get_key(rt, 128, counter);
    h.kms.get_key(it, 128, counter);
    h.kms.get_key(bulk, 128, counter);
  }

  // Starved rounds mount; bulk is dropped first, then interactive; the
  // realtime backlog is never shed.
  h.scheduler.run_for(kSecond);
  EXPECT_TRUE(h.kms.shedding());
  EXPECT_EQ(shed[2], 8u);
  EXPECT_EQ(shed[1], 8u);
  EXPECT_EQ(shed[0], 0u);
  EXPECT_EQ(h.kms.queue_depth(QosClass::kRealtime), 8u);
  EXPECT_GE(h.kms.stats().starved_rounds, 2u);

  // Supply returns: the surviving realtime backlog drains.
  h.mesh.step(20.0);
  h.scheduler.run_for(kSecond);
  EXPECT_EQ(granted[0], 8u);
  EXPECT_FALSE(h.kms.shedding());
  EXPECT_EQ(h.kms.queue_depth(QosClass::kRealtime), 0u);
}

TEST(Kms, ReplenishedLinkSupplyWakesStalledQueueBeforeRetryBackoff) {
  // Engine-backed two-node mesh: the KMS subscribes to the link supply and
  // a kReplenished crossing — not the (deliberately huge) retry backoff —
  // is what serves the stalled queue.
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kEndpoint);
  const NodeId b = topo.add_node("b", NodeKind::kEndpoint);
  topo.add_link(a, b);
  network::LinkKeyService::Config engine;
  engine.proto.frame_slots = 1 << 19;
  engine.proto.auth_replenish_bits = 64;
  engine.threads = 1;
  MeshSimulation mesh(topo, 5, engine);

  qkd::SimClock clock;
  sim::EventScheduler scheduler(clock);
  KeyManagementService::Config config;
  config.retry_backoff = 10 * kMinute;  // only a wakeup can serve in time
  config.link_low_water_bits = 256;
  KeyManagementService kms(mesh, scheduler, config);
  const ClientId client =
      kms.register_client({"app", a, b, QosClass::kRealtime});

  std::optional<SimTime> granted_at;
  kms.get_key(client, 64, [&](const Grant& g) {
    if (g.status == GrantStatus::kGranted) granted_at = g.granted_at;
  });

  // Scheduled distillation, as ScenarioRunner arms it.
  auto* service = mesh.key_service();
  const SimTime frame = seconds_to_sim(service->link_frame_duration_s(0));
  scheduler.every(frame, frame,
                  [service](SimTime) { service->run_link_batch(0); });
  scheduler.run_until(30 * kSecond);

  ASSERT_TRUE(granted_at.has_value());
  EXPECT_LT(*granted_at, 10 * kMinute) << "served before the retry backoff";
  EXPECT_GE(kms.stats().replenish_wakeups, 1u);
  EXPECT_GE(kms.stats().starved_rounds, 1u);
}

TEST(Kms, SameWindowRequestsShareOneRelayFrame) {
  Harness h;
  const ClientId one = h.kms.register_client({"one", 1, 2, QosClass::kBulk});
  const ClientId two = h.kms.register_client({"two", 1, 2, QosClass::kBulk});
  std::size_t granted = 0;
  const auto count = [&](const Grant& g) {
    if (g.status == GrantStatus::kGranted) ++granted;
  };
  h.kms.get_key(one, 128, count);
  h.kms.get_key(two, 64, count);
  h.scheduler.run_for(kSecond);
  EXPECT_EQ(granted, 2u);
  EXPECT_EQ(h.kms.stats().transports, 1u) << "both grants rode one frame";
  EXPECT_EQ(h.mesh.stats().transports_succeeded, 1u);
}

TEST(Kms, DeregisterDrainsQueuedRequestsAsDeparted) {
  Harness h;
  const ClientId stay = h.kms.register_client({"stay", 1, 2, QosClass::kBulk});
  const ClientId leave =
      h.kms.register_client({"leave", 1, 2, QosClass::kBulk});
  std::vector<GrantStatus> leave_outcomes;
  std::size_t stay_granted = 0;
  h.kms.get_key(leave, 128,
                [&](const Grant& g) { leave_outcomes.push_back(g.status); });
  h.kms.get_key(stay, 128, [&](const Grant& g) {
    if (g.status == GrantStatus::kGranted) ++stay_granted;
  });
  h.kms.deregister_client(leave);

  ASSERT_EQ(leave_outcomes.size(), 1u);
  EXPECT_EQ(leave_outcomes[0], GrantStatus::kDeparted);
  EXPECT_THROW(h.kms.get_key(leave, 128, [](const Grant&) {}),
               std::invalid_argument);
  EXPECT_EQ(h.kms.client_count(), 1u);

  h.scheduler.run_for(kSecond);
  EXPECT_EQ(stay_granted, 1u) << "the surviving tenant is unaffected";
}

TEST(Kms, CallbacksThatRequestAgainOnShedAndDepartureGetOneCallbackEach) {
  // A fleet whose grant callbacks call get_key on the same pair while the
  // shard is draining a departed client or shedding a class: every request
  // still gets exactly one callback, none is dropped with the shed queue,
  // and each class's queue depth equals the sum of the pair queues.
  KeyManagementService::Config config;
  config.shed_after_starved_rounds = 2;
  config.retry_backoff = 100 * kMillisecond;
  Harness h(config, /*prefill_s=*/0.0);  // pools empty: rounds starve
  const std::array<ClientId, kQosClassCount> stay = {
      h.kms.register_client({"rt", 1, 2, QosClass::kRealtime}),
      h.kms.register_client({"it", 1, 2, QosClass::kInteractive}),
      h.kms.register_client({"bulk", 1, 2, QosClass::kBulk})};
  const ClientId leave =
      h.kms.register_client({"leave", 1, 2, QosClass::kInteractive});

  // callbacks[i] counts the callbacks of request i. A request that is shed
  // or departed asks again once, through its class's staying client.
  std::vector<int> callbacks;
  std::function<void(ClientId, bool)> request = [&](ClientId client,
                                                    bool retry) {
    const std::size_t id = callbacks.size();
    callbacks.push_back(0);
    h.kms.get_key(client, 128, [&, id, retry](const Grant& g) {
      ++callbacks[id];
      if (retry && (g.status == GrantStatus::kShed ||
                    g.status == GrantStatus::kDeparted))
        request(stay[static_cast<std::size_t>(h.kms.client(g.client).qos)],
                false);
    });
  };
  const auto depths_match = [&] {
    std::array<std::size_t, kQosClassCount> oracle{};
    for (const auto& pair : h.kms.inspect_pairs())
      for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
        oracle[qos] += pair.queue_depths[qos];
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
      EXPECT_EQ(h.kms.queue_depth(static_cast<QosClass>(qos)), oracle[qos])
          << qos_class_name(static_cast<QosClass>(qos));
  };
  for (int i = 0; i < 4; ++i) {
    for (const ClientId client : {stay[0], stay[1], stay[2], leave})
      request(client, true);
  }

  h.kms.deregister_client(leave);  // four re-requests join "it"'s queue
  depths_match();
  EXPECT_EQ(h.kms.queue_depth(QosClass::kInteractive), 8u);

  // The drought sheds bulk, its re-requests, then interactive twice.
  h.scheduler.run_for(2 * kSecond);
  depths_match();
  EXPECT_EQ(h.kms.class_stats(QosClass::kBulk).shed, 8u);
  EXPECT_EQ(h.kms.class_stats(QosClass::kInteractive).shed, 12u);
  EXPECT_EQ(h.kms.queue_depth(QosClass::kRealtime), 4u);

  // Supply returns: the realtime backlog drains and nothing is left.
  h.mesh.step(20.0);
  h.scheduler.run_for(kSecond);
  depths_match();
  ASSERT_EQ(callbacks.size(), 28u);
  for (std::size_t id = 0; id < callbacks.size(); ++id)
    EXPECT_EQ(callbacks[id], 1) << "request " << id;
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
    EXPECT_EQ(h.kms.queue_depth(static_cast<QosClass>(qos)), 0u);
}

TEST(Kms, UnclaimedPeerCopyExpiresAfterTtl) {
  KeyManagementService::Config config;
  config.claim_ttl = kSecond;
  Harness h(config);
  const ClientId client =
      h.kms.register_client({"app", 1, 2, QosClass::kInteractive});
  std::uint64_t key_id = 0;
  h.kms.get_key(client, 256, [&](const Grant& g) { key_id = g.key_id; });
  h.scheduler.run_for(100 * kMillisecond);
  ASSERT_NE(key_id, 0u);

  h.scheduler.run_for(2 * kSecond);
  EXPECT_FALSE(h.kms.get_key_with_id(client, key_id).has_value());
  EXPECT_EQ(h.kms.stats().claims_expired, 1u);
}

TEST(Kms, DegenerateRequestsThrow) {
  Harness h;
  const ClientId client =
      h.kms.register_client({"app", 1, 2, QosClass::kBulk});
  EXPECT_THROW(h.kms.get_key(client, 0, [](const Grant&) {}),
               std::invalid_argument);
  EXPECT_THROW(h.kms.get_key(client + 1, 64, [](const Grant&) {}),
               std::invalid_argument);
  EXPECT_THROW(h.kms.register_client({"self", 1, 1, QosClass::kBulk}),
               std::invalid_argument);
}

}  // namespace
}  // namespace qkd::kms
