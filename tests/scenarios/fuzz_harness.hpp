// The fuzz oracle: runs one generated FuzzCase through the full stack
// (analytic mesh + KMS + client fleet on one ScenarioRunner) and checks
// the global invariants after EVERY scenario event and at the horizon:
//
//   * legality      — the action sequence passes validate_actions()
//   * lockstep      — each pair's mirrored pools agree on available bits,
//                     next key_id and every Stats counter, always
//   * QoS floor     — the realtime class is never shed
//   * flagging      — a grant is marked compromised iff its frame was
//                     exposed to a currently-owned relay (no unflagged
//                     traversal, no false alarms)
//   * conservation  — bits granted == bits withdrawn <= bits distilled
//                     into the pair stores (frame payloads + reclaims)
//   * monotonicity  — scenario time and grant timestamps never run
//                     backwards
//
// run_fuzz_scenario() returns the first violation as text (empty = all
// held); fuzz_failure_report() shrinks the failing script with minimize()
// and renders the seed + minimized action list a developer replays.
#pragma once

#include <set>
#include <string>
#include <utility>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/sim/fuzz.hpp"

namespace qkd::testing {

struct FuzzRunResult {
  std::string violation;  // empty: every invariant held to the horizon
  std::size_t dispatched = 0;
  std::uint64_t grants = 0;
};

/// Runs `scenario` against the case's topology/seed (the case's own script
/// or a minimized variant of it).
inline FuzzRunResult run_fuzz_scenario(const sim::FuzzCase& fuzz_case,
                                       const sim::Scenario& scenario) {
  FuzzRunResult result;
  const auto illegal = sim::validate_actions(fuzz_case.topology, scenario);
  if (!illegal.empty()) {
    result.violation = "illegal action sequence: " + illegal.front();
    return result;
  }

  network::MeshSimulation mesh(fuzz_case.topology, fuzz_case.mesh_seed);
  sim::ScenarioRunner runner(scenario);
  runner.attach_mesh(mesh);

  kms::KeyManagementService::Config kms_config;
  kms_config.shed_after_starved_rounds = 2;  // droughts reach the shedder
  kms::KeyManagementService kms(mesh, runner.scheduler(), kms_config);
  kms::KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);
  kms.bind_metrics(runner.registry(), "kms");

  std::string violation;
  const auto flag = [&violation](std::string message) {
    if (violation.empty()) violation = std::move(message);
  };

  // Relays currently owned, mirrored from the applied actions (state only
  // changes at actions, and the observer runs before any further event).
  std::set<network::NodeId> owned;

  std::uint64_t grants = 0;
  kms.set_grant_observer([&](const kms::Grant& grant) {
    if (grant.status != kms::GrantStatus::kGranted) return;
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
    for (std::size_t qos = 0; qos < kms::kQosClassCount; ++qos)
      granted_bits +=
          kms.class_stats(static_cast<kms::QosClass>(qos)).bits_granted;
    if (granted_bits != withdrawn)
      flag("conservation broken: granted " + std::to_string(granted_bits) +
           " bits but withdrew " + std::to_string(withdrawn));
    if (withdrawn > deposited)
      flag("conservation broken: withdrew " + std::to_string(withdrawn) +
           " bits from " + std::to_string(deposited) + " distilled");

    if (kms.class_stats(kms::QosClass::kRealtime).shed != 0)
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

  result.dispatched = runner.run(fuzz_case.horizon);
  check_invariants(runner.clock().now());
  result.grants = grants;
  result.violation = std::move(violation);
  return result;
}

inline FuzzRunResult run_fuzz_case(const sim::FuzzCase& fuzz_case) {
  return run_fuzz_scenario(fuzz_case, fuzz_case.scenario);
}

/// What a failing campaign prints: the violation, the seed, and the
/// greedily minimized action script that still reproduces it.
inline std::string fuzz_failure_report(const sim::FuzzCase& fuzz_case,
                                       const std::string& violation) {
  const sim::Scenario minimized = sim::minimize(
      fuzz_case.scenario, [&fuzz_case](const sim::Scenario& candidate) {
        return !run_fuzz_scenario(fuzz_case, candidate).violation.empty();
      });
  return "invariant violated: " + violation + "\nreplay: ScenarioFuzzer(" +
         std::to_string(fuzz_case.seed) +
         ").generate()\nminimized script:\n" +
         fuzz_case.script_for(minimized);
}

}  // namespace qkd::testing
