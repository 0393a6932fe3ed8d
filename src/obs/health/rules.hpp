// The built-in rule pack: the alarms the paper's network is run by.
//
// Each factory returns one configured AlertRule for a signal the stack
// already exports through bind_metrics(); callers pass the metric names
// (the obs layer cannot see network/kms types, so topology enumeration —
// one QBER rule per link, one drought rule per endpoint pair — happens at
// the caller's level, where the links and pairs are known). Defaults are
// grounded in the paper's operating points: the QBER alarm sits at 8%
// (warning territory below the 11% intercept-resend abort), the drought
// floor at one 256-bit AES key worth of pooled bits, and the grant SLO
// uses the SRE multi-window burn-rate pattern.
#pragma once

#include <string>

#include "src/obs/health/alert.hpp"

namespace qkd::obs::health::rules {

/// Eavesdrop alarm: the link's QBER gauge (percent, as exported by the
/// mesh) crossed `qber_percent`. Intercept-resend at full fraction drives
/// QBER to ~25%; the 8% default trips well before the 11% protocol abort
/// so the alert leads the automatic link teardown.
AlertRule qber_spike(const std::string& qber_metric, const std::string& link,
                     double qber_percent = 8.0,
                     qkd::SimTime for_duration = 2 * qkd::kSecond);

/// Per-pair pool drought: the pooled key bits for one endpoint pair fell
/// below `min_bits` (default: one AES-256 key). Debounced so a transient
/// dip during a burst does not page.
AlertRule pool_drought(const std::string& pool_metric, const std::string& pair,
                       double min_bits = 256.0,
                       qkd::SimTime for_duration = 5 * qkd::kSecond);

/// Grant-latency SLO burn: `good_metric` counts grants inside the latency
/// objective, `total_metric` all grants; fires when both the short and the
/// long window burn the error budget faster than `burn_threshold`.
AlertRule grant_slo_burn(const std::string& good_metric,
                         const std::string& total_metric,
                         const std::string& qos, double objective = 0.99,
                         qkd::SimTime short_window = 10 * qkd::kSecond,
                         qkd::SimTime long_window = 60 * qkd::kSecond,
                         double burn_threshold = 2.0);

/// Shed/rejection surge: the class's cumulative shed counter is rising
/// faster than `per_second` over `window` (load shedding is by design, a
/// *surge* of it is an incident).
AlertRule shed_surge(const std::string& shed_metric, const std::string& qos,
                     double per_second = 1.0,
                     qkd::SimTime window = 10 * qkd::kSecond,
                     qkd::SimTime for_duration = 0);

/// Wire retransmission storm: the transport's retransmit counter is rising
/// faster than `per_second` over `window` — the classical channel under
/// the key protocols is degrading.
AlertRule retransmission_storm(const std::string& retransmit_metric,
                               double per_second = 5.0,
                               qkd::SimTime window = 10 * qkd::kSecond,
                               qkd::SimTime for_duration = 0);

/// Pad runway draining: the link's authentication pad gauge (bits left,
/// as QkdLinkSession::bind_metrics exports it) has fallen faster than
/// `bits_per_second` over `window`. A batch spends 64 pad bits and an
/// accepted one repays what is owed, so a balanced link's runway only dips
/// between an aborted batch and the next accepted one; one whose batches
/// keep aborting (or whose key is too short to repay) drains it toward
/// the kAuthExhausted stop.
AlertRule pad_runway_draining(const std::string& pad_metric,
                              const std::string& link,
                              double bits_per_second = 16.0,
                              qkd::SimTime window = 60 * qkd::kSecond,
                              qkd::SimTime for_duration = 0);

/// Distillation watchdog: the transports counter has not advanced for
/// `stale_after` — key generation stopped entirely (fiber cut, engine
/// wedge) even though nothing else alarmed.
AlertRule distillation_stalled(const std::string& transports_metric,
                               qkd::SimTime stale_after = 30 * qkd::kSecond);

}  // namespace qkd::obs::health::rules
