// Randomized shard-boundary invariants: generated scenario scripts (the
// same ScenarioFuzzer corpus the scenarios suite replays) run through a
// sharded-scheduler KMS, checking after every scenario action and at the
// horizon that
//
//   * lockstep      — each pair's mirrored pools agree on every counter no
//                     matter which shard serves them
//   * conservation  — bits granted == bits withdrawn <= bits distilled
//                     into the pair stores, summed ACROSS shards
//   * QoS floor     — realtime is never shed
//   * flagging      — compromise marking matches the owned-relay set
//
// and — the shard-boundary contract itself — that a fixed case replayed
// with 1 shard and with 4 shards (and with 1 and 2 worker lanes) delivers
// IDENTICAL per-client grant sequences.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/fuzz.hpp"
#include "src/sim/sharded_scheduler.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::kms {
namespace {

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

struct ShardedFuzzResult {
  std::string violation;  // empty: every invariant held to the horizon
  std::uint64_t grants = 0;
  /// client id -> its full grant sequence in delivery order.
  std::map<ClientId, std::vector<GrantEvent>> per_client;
};

/// The sharded twin of testing::run_fuzz_case: same generated script, same
/// fleet, same invariants — but the KMS runs on a
/// ShardedScheduler with the given shard/lane counts.
ShardedFuzzResult run_sharded_case(const sim::FuzzCase& fuzz_case,
                                   std::size_t shards, std::size_t lanes) {
  ShardedFuzzResult result;
  network::MeshSimulation mesh(fuzz_case.topology, fuzz_case.mesh_seed);
  sim::ScenarioRunner runner(fuzz_case.scenario);
  runner.attach_mesh(mesh);
  sim::ShardedScheduler sharded(
      runner.scheduler(), shards,
      std::make_shared<common::WorkerPool>(lanes));

  KeyManagementService::Config kms_config;
  kms_config.shed_after_starved_rounds = 2;  // droughts reach the shedder
  KeyManagementService kms(mesh, sharded, kms_config);
  KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);

  std::string violation;
  // One mutex serializes the observer across shard lanes; within a client
  // the order of its grants is its own lane's serial order, so the
  // per-client sequences are still deterministic.
  std::mutex mu;
  const auto flag = [&violation](std::string message) {
    if (violation.empty()) violation = std::move(message);
  };

  // Relays currently owned, mirrored from the applied actions (mutated
  // only in the global phase, read only in shard/barrier phases — never
  // concurrently).
  std::set<network::NodeId> owned;

  std::uint64_t grants = 0;
  kms.set_grant_observer([&](const Grant& grant) {
    std::scoped_lock lock(mu);
    result.per_client[grant.client].push_back(
        {grant.status, grant.key_id, grant.bits, grant.granted_at});
    if (grant.status != GrantStatus::kGranted) return;
    ++grants;
    if (grant.granted_at < grant.requested_at)
      flag("grant timestamps ran backwards (granted_at < requested_at)");
    bool exposed_to_owned = false;
    for (network::NodeId node : grant.exposed_to)
      if (owned.count(node) != 0) exposed_to_owned = true;
    if (grant.compromised != exposed_to_owned)
      flag(std::string("compromise flagging broken: grant ") +
           (grant.compromised ? "flagged with no owned relay on its route"
                              : "traversed an owned relay unflagged"));
  });

  qkd::SimTime last_now = -1;
  const auto check_invariants = [&](qkd::SimTime now) {
    if (now < last_now) flag("scenario time ran backwards");
    last_now = now;

    std::uint64_t withdrawn = 0;
    std::uint64_t deposited = 0;
    for (const auto& pair : kms.inspect_pairs()) {
      const std::string tag = "pair " + std::to_string(pair.src) + "->" +
                              std::to_string(pair.dst) + ": mirrored stores ";
      if (pair.src_available_bits != pair.dst_available_bits)
        flag(tag + "diverged in available bits");
      if (pair.src_next_key_id != pair.dst_next_key_id)
        flag(tag + "diverged in next key_id");
      if (pair.src_stats.bits_deposited != pair.dst_stats.bits_deposited ||
          pair.src_stats.bits_withdrawn != pair.dst_stats.bits_withdrawn ||
          pair.src_stats.failed_withdrawals !=
              pair.dst_stats.failed_withdrawals)
        flag(tag + "diverged in flow counters");
      withdrawn += pair.src_stats.bits_withdrawn;
      deposited += pair.src_stats.bits_deposited;
    }

    std::uint64_t granted_bits = 0;
    for (std::size_t qos = 0; qos < kQosClassCount; ++qos)
      granted_bits += kms.class_stats(static_cast<QosClass>(qos)).bits_granted;
    if (granted_bits != withdrawn)
      flag("conservation broken across shards: granted " +
           std::to_string(granted_bits) + " bits but withdrew " +
           std::to_string(withdrawn));
    if (withdrawn > deposited)
      flag("conservation broken: withdrew " + std::to_string(withdrawn) +
           " bits from " + std::to_string(deposited) + " distilled");

    if (kms.class_stats(QosClass::kRealtime).shed != 0)
      flag("the realtime class was shed");
  };

  runner.set_action_observer(
      [&](qkd::SimTime now, const sim::ScenarioAction& action) {
        if (const auto* compromise = std::get_if<sim::CompromiseNode>(&action))
          owned.insert(compromise->node);
        if (const auto* restore = std::get_if<sim::RestoreNode>(&action))
          owned.erase(restore->node);
        check_invariants(now);
      });

  runner.run(sharded, fuzz_case.horizon);
  check_invariants(runner.clock().now());
  result.grants = grants;
  result.violation = std::move(violation);
  return result;
}

sim::ScenarioFuzzer::Config short_cases() {
  sim::ScenarioFuzzer::Config config;
  config.horizon = 20 * kSecond;  // bounded wall-clock per case
  return config;
}

/// Generated scripts against a 3-shard, 2-lane epoch KMS: every
/// shard-boundary invariant holds after every action.
TEST(KmsShardFuzz, GeneratedScenariosHoldInvariantsUnderSharding) {
  QKD_SEEDED_RNG(rng, 9100);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = rng.next_u64();
    const sim::FuzzCase fuzz_case =
        sim::ScenarioFuzzer(seed, short_cases()).generate();
    if (!sim::validate_actions(fuzz_case.topology, fuzz_case.scenario)
             .empty())
      continue;  // the fuzzer generates legal scripts; belt and braces
    const auto result = run_sharded_case(fuzz_case, 3, 2);
    EXPECT_EQ(result.violation, "")
        << "seed " << seed << "\n"
        << fuzz_case.script();
  }
}

/// The shard-boundary determinism contract under a randomized script:
/// 1 shard, 4 shards and 4 shards on 2 lanes all deliver the same grants
/// to the same clients at the same times.
TEST(KmsShardFuzz, ShardCountDoesNotChangePerClientGrantSequences) {
  QKD_SEEDED_RNG(rng, 9200);
  const std::uint64_t seed = rng.next_u64();
  const sim::FuzzCase fuzz_case =
      sim::ScenarioFuzzer(seed, short_cases()).generate();

  const auto one = run_sharded_case(fuzz_case, 1, 1);
  const auto four = run_sharded_case(fuzz_case, 4, 1);
  const auto four_threaded = run_sharded_case(fuzz_case, 4, 2);

  EXPECT_EQ(one.violation, "") << fuzz_case.script();
  EXPECT_EQ(one.grants, four.grants);
  EXPECT_EQ(one.grants, four_threaded.grants);
  ASSERT_EQ(one.per_client.size(), four.per_client.size());
  for (const auto& [client, log] : one.per_client) {
    const auto it = four.per_client.find(client);
    ASSERT_NE(it, four.per_client.end()) << "client " << client;
    EXPECT_EQ(log, it->second) << "client " << client << " diverged, seed "
                               << seed;
    const auto threaded = four_threaded.per_client.find(client);
    ASSERT_NE(threaded, four_threaded.per_client.end());
    EXPECT_EQ(log, threaded->second)
        << "client " << client << " diverged under lanes, seed " << seed;
  }
  EXPECT_GT(one.grants, 0u) << "the case must actually grant; seed " << seed;
}

}  // namespace
}  // namespace qkd::kms
