// Monte-Carlo simulation of the paper's weak-coherent QKD link (Fig. 3).
//
// One WeakCoherentLink instance models the full transmitter-fiber-receiver
// chain: Poisson photon statistics at the attenuated 1550 nm source, the
// (basis, value) phase modulation, channel loss, Mach-Zehnder interference,
// gated APD detection with dark counts and optional afterpulsing, and the
// 1300 nm bright-pulse framing. An optional Attack taps the channel.
//
// Each trigger from the OPC produces one slot; the frame is the unit handed
// to the QKD protocol stack ("Qframes"). The generator is driven by the
// events that happen: the loop visits only the slots where a photon
// reaches an APD (under attack: is emitted), either APD fires on a dark
// count, the framing misses, or an afterpulse is pending. It reaches them
// by geometric gaps drawn from a ziggurat exponential, draws one word of
// modulator settings there (whose low bits also give the photon number),
// and returns the frame as its sorted click list (DESIGN.md, "The Qframe
// generator").
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/optics/attacks.hpp"
#include "src/optics/link_params.hpp"
#include "src/optics/types.hpp"

namespace qkd::optics {

class WeakCoherentLink {
 public:
  struct Stats {
    std::uint64_t pulses = 0;
    std::uint64_t detections = 0;      // usable single clicks
    std::uint64_t double_clicks = 0;
    std::uint64_t dark_only_clicks = 0;
    std::uint64_t signal_clicks = 0;
    std::uint64_t misframed_slots = 0;
  };

  WeakCoherentLink(LinkParams params, std::uint64_t seed);

  /// Simulates `n_slots` (at most 2^32) consecutive trigger slots. If
  /// `attack` is non-null it is applied to every photon-bearing pulse
  /// (attacks are no-ops on empty ones).
  FrameResult run_frame(std::size_t n_slots, Attack* attack = nullptr);

  const LinkParams& params() const { return params_; }
  const Stats& stats() const { return stats_; }

  /// Wall-clock duration of n slots at the configured trigger rate (seconds).
  double frame_duration_s(std::size_t n_slots) const {
    return static_cast<double>(n_slots) / params_.pulse_rate_hz;
  }

 private:
  LinkParams params_;
  qkd::Rng rng_;
  Stats stats_;
  bool afterpulse_pending_[2] = {false, false};
};

}  // namespace qkd::optics
