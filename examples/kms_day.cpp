// One scripted day of the multi-tenant key management service.
//
//   $ ./example_kms_day
//
// The KMS fronts the relay mesh for a fleet of client applications in
// three QoS classes. The morning ramps five hundred clients up with three
// scenario lines; at midday Eve camps on the head-end fiber — the QBER
// alarm abandons the link, the mesh has no route, and sustained
// exhaustion sheds the bulk class first while realtime requests queue; in
// the afternoon she leaves, the pools refill, and the surviving backlog
// drains. Everything — arrivals, requests, service rounds, shedding,
// recovery — is an event on one EventScheduler, and the TimelineRecorder
// charts per-class queue depth, grants and rejections as it happens, from
// the same metrics registry the health engine reads.
//
// Set QKD_TRACE_OUT=/path/trace.json to trace the midday incident window
// (one minute straddling Eve's arrival) and write it as Chrome trace JSON
// — open the file in Perfetto (ui.perfetto.dev) or feed it to
// tools/trace_report.py for per-span latency percentiles.
//
// The health engine watches the same day through the metrics registry:
// the built-in rule pack (QBER spike, pool drought, SLO burn, shed
// surge) runs as periodic evaluations on the scenario timeline, and the
// eavesdrop minute shows up as alerts transitioning pending -> firing ->
// resolved. Set QKD_INCIDENT_OUT=/path/incidents.json to write the JSON
// incident report (tools/incident_report.py renders it, and merges the
// trace with --trace).
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/kms/client_fleet.hpp"
#include "src/kms/kms.hpp"
#include "src/obs/export.hpp"
#include "src/obs/health/report.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/scenario.hpp"

using namespace qkd;
using namespace qkd::kms;
using namespace qkd::sim;
using network::MeshSimulation;
using network::NodeId;
using network::Topology;

int main() {
  // relay_ring(6): relays 0..5, alice = node 6 (tail link 6), bob = node 7.
  // The optics are run hot (GHz trigger) so the day is supply-rich when
  // the fibers are healthy — the drought below is Eve's doing, not a
  // provisioning shortfall.
  Topology topo = Topology::relay_ring(6);
  for (const network::Link& link : topo.links())
    topo.link(link.id).optics.pulse_rate_hz = 1e9;
  MeshSimulation mesh(std::move(topo), 2026);
  const NodeId alice = 6, bob = 7;

  Scenario day;
  // Morning ramp-up: monitoring, interactive sessions, then backup jobs.
  day.at(2 * kMinute, ClientArrival{alice, bob, /*qos=*/0, /*count=*/50,
                                    /*request_rate_hz=*/0.5, /*bits=*/128});
  day.at(5 * kMinute, ClientArrival{alice, bob, 1, 150, 0.5, 256});
  day.at(8 * kMinute, ClientArrival{alice, bob, 2, 300, 0.5, 512});
  // Midday: Eve camps on alice's head-end fiber. Alarm, no route, drought.
  day.at(20 * kMinute, StartEavesdrop{6, 1.0});
  // Afternoon: she gives up; the link refills and the backlog drains.
  day.at(35 * kMinute, StopEavesdrop{6});
  // Evening: the bulk cohort logs off.
  day.at(50 * kMinute, ClientDeparture{alice, bob, 2, 300});

  ScenarioRunner::Config runner_config;
  runner_config.sample_interval = 2 * kMinute;
  ScenarioRunner runner(day, runner_config);
  runner.attach_mesh(mesh);

  KeyManagementService::Config kms_config;
  kms_config.shed_after_starved_rounds = 4;
  kms_config.retry_backoff = kSecond;
  KeyManagementService kms(mesh, runner.scheduler(), kms_config);
  KmsClientFleet fleet(kms);
  runner.attach_client_driver(fleet);

  // The health layer: every signal the rules watch flows through the
  // runner's registry (the mesh is bound as "mesh" by attach_mesh), the
  // recorder samples the same registry, and the engine evaluates the rule
  // pack every ten sim seconds on the same timeline the day runs on.
  obs::MetricsRegistry& registry = runner.registry();
  kms.bind_metrics(registry, "kms");
  obs::health::AlertEngine alerts(registry);
  // Eve's fiber is link 6 (alice's head-end); the alice->bob pair's supply
  // hangs off it, so its pool is the drought signal for the pair.
  alerts.add_rule(obs::health::rules::qber_spike("mesh_link6_qber_percent",
                                                "6"));
  alerts.add_rule(obs::health::rules::pool_drought("mesh_link6_pool_bits",
                                                   "6->7"));
  alerts.add_rule(obs::health::rules::grant_slo_burn(
      "kms_interactive_granted_within_slo", "kms_interactive_granted",
      "interactive"));
  alerts.add_rule(obs::health::rules::shed_surge("kms_bulk_shed", "bulk"));
  alerts.bind_alerts(registry);
  runner.attach_alerts(alerts, 10 * kSecond);

  // Optional tracing: the full day would record millions of spans, so the
  // trace covers the interesting minute — thirty seconds of healthy
  // service, then Eve's arrival and the starvation that follows.
  const char* trace_out = std::getenv("QKD_TRACE_OUT");
  obs::Tracer tracer(kms.shard_count());
  if (trace_out != nullptr) {
    tracer.set_sim_time_source(
        [&runner] { return runner.scheduler().now(); });
    kms.set_tracer(&tracer);
    mesh.set_tracer(&tracer);
    runner.scheduler().at(
        19 * kMinute + 30 * kSecond,
        [&tracer](SimTime) { tracer.set_enabled(true); });
    runner.scheduler().at(
        20 * kMinute + 30 * kSecond,
        [&tracer](SimTime) { tracer.set_enabled(false); });
  }

  const std::size_t dispatched = runner.run(kHour);

  std::printf(
      "== a KMS day: %zu clients served over the mesh (%zu events) ==\n\n",
      fleet.active_clients() + 300, dispatched);
  std::printf("%s\n", runner.recorder().render().c_str());

  std::printf("-- the day per QoS class --\n");
  std::printf("%-12s %10s %10s %10s %8s %9s\n", "class", "requests",
              "granted", "rejected", "shed", "p99 ms");
  for (std::size_t qos = 0; qos < kQosClassCount; ++qos) {
    const auto& stats = kms.class_stats(static_cast<QosClass>(qos));
    std::printf("%-12s %10llu %10llu %10llu %8llu %9.1f\n",
                qos_class_name(static_cast<QosClass>(qos)),
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.granted),
                static_cast<unsigned long long>(stats.rejected_queue_full),
                static_cast<unsigned long long>(stats.shed),
                1e3 * kms.p99_grant_latency_s(static_cast<QosClass>(qos)));
  }

  const auto& service = kms.stats();
  std::printf(
      "\n-- service internals --\n"
      "  relay frames: %llu for %llu grants (%.1f grants/frame batching)\n"
      "  starved rounds: %llu, shed events: %llu (bulk first, realtime "
      "never)\n"
      "  peer claims matched: %llu of %llu grants (key-ID agreement)\n",
      static_cast<unsigned long long>(service.transports),
      static_cast<unsigned long long>(fleet.stats().granted),
      service.transports != 0
          ? static_cast<double>(fleet.stats().granted) /
                static_cast<double>(service.transports)
          : 0.0,
      static_cast<unsigned long long>(service.starved_rounds),
      static_cast<unsigned long long>(service.shed_events),
      static_cast<unsigned long long>(fleet.stats().claims_matched),
      static_cast<unsigned long long>(fleet.stats().granted));

  const std::string csv = runner.recorder().to_csv();
  std::printf(
      "\n-- recorder.to_csv(): %zu bytes, plottable per-class series --\n",
      csv.size());
  std::printf("%s", csv.substr(0, csv.find('\n') + 1).c_str());

  // The day as the on-call rotation saw it: every lifecycle transition,
  // then one line per assembled incident.
  std::printf("\n-- alerts: the day as incidents --\n");
  for (const auto& t : alerts.transitions())
    std::printf("  t=%6.0fs  %-24s %s -> %s\n", sim_to_seconds(t.at),
                t.rule.c_str(), obs::health::alert_state_name(t.from),
                obs::health::alert_state_name(t.to));
  for (const auto& incident : alerts.incidents()) {
    char resolved[48];
    if (incident.resolved())
      std::snprintf(resolved, sizeof resolved, "resolved t=%.0fs",
                    sim_to_seconds(incident.resolved_at));
    else
      std::snprintf(resolved, sizeof resolved, "still firing");
    std::printf("  incident: %s fired t=%.0fs, %s (peak %.3g) — %s\n",
                incident.rule.c_str(), sim_to_seconds(incident.firing_at),
                resolved, incident.peak_value, incident.summary.c_str());
  }

  if (const char* incident_out = std::getenv("QKD_INCIDENT_OUT")) {
    obs::health::write_incident_report(alerts, incident_out);
    std::printf(
        "\n-- incident report -> %s --\n"
        "   render with tools/incident_report.py (merge the trace via "
        "--trace)\n",
        incident_out);
  }

  if (trace_out != nullptr) {
    const std::string json = obs::chrome_trace_json(tracer);
    std::ofstream out(trace_out);
    out << json;
    std::printf(
        "\n-- trace: %zu spans over the incident minute -> %s (%zu KiB) --\n"
        "   load in Perfetto (ui.perfetto.dev) or run "
        "tools/trace_report.py on it\n",
        tracer.span_count(), trace_out, json.size() / 1024);
  }
  return 0;
}
