// Entangled-photon-pair link — the paper's planned second link type.
//
// Section 3: "we hope to achieve rapid delivery of keys by introducing a
// new, high-speed source of entangled photons"; Section 8: "work should
// proceed at full speed on building out ... its next kinds of QKD links
// (based on entangled photon pairs)". Section 6 gives the security payoff:
// with an entangled link Eve's transparent leakage is "only proportional to
// the number of received bits times the multi-photon probability".
//
// Model: a Spontaneous Parametric Down-Conversion source at Alice emits
// photon pairs; Alice measures one photon locally (high-efficiency detector,
// negligible loss), the other travels the fiber to Bob. Measurements in
// matching bases are correlated up to the entanglement visibility; double
// pairs produce accidental coincidences (errors) and are the entangled
// analogue of multi-photon pulses. The link produces the same FrameResult
// the weak-coherent link does, so the whole protocol stack runs unchanged
// on top — with LinkKind::kEntangled selected in the entropy estimate.
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/optics/types.hpp"

namespace qkd::optics {

struct EntangledParams {
  /// Probability an SPDC pair is emitted in a trigger slot (pump power).
  double pair_probability = 0.05;
  /// Probability a slot carries two independent pairs (the multi-photon
  /// analogue; roughly pair_probability^2 for a Poissonian pump).
  double double_pair_probability = 0.0025;
  /// Entanglement visibility: matched-basis correlation = (1+V)/2.
  double visibility = 0.97;
  /// Alice's local detector efficiency (short free-space path).
  double alice_efficiency = 0.6;
  /// Fiber to Bob.
  double fiber_km = 10.0;
  double attenuation_db_per_km = 0.2;
  double insertion_loss_db = 2.0;
  /// Bob's gated APD.
  double bob_efficiency = 0.15;
  double dark_count_prob = 1e-5;
  /// Trigger rate (the "high-speed source" goal).
  double pulse_rate_hz = 1e6;

  double transmittance() const;
};

class EntangledLink {
 public:
  struct Stats {
    std::uint64_t slots = 0;
    std::uint64_t pairs_emitted = 0;
    std::uint64_t double_pairs = 0;
    std::uint64_t coincidences = 0;  // both sides detected
  };

  EntangledLink(EntangledParams params, std::uint64_t seed);

  /// One frame of trigger slots (at most 2^32). Its clicks are the
  /// coincidence slots, with Alice's measured value as her bit
  /// (entanglement means neither side chooses it). Eve's record lists the
  /// double-pair slots as known (she can capture the spare pair
  /// undetectably).
  FrameResult run_frame(std::size_t n_slots);

  const EntangledParams& params() const { return params_; }
  const Stats& stats() const { return stats_; }

  double frame_duration_s(std::size_t n_slots) const {
    return static_cast<double>(n_slots) / params_.pulse_rate_hz;
  }

 private:
  EntangledParams params_;
  qkd::Rng rng_;
  Stats stats_;
};

/// Analytic expectations, mirroring LinkModel for the weak-coherent case.
struct EntangledModel {
  explicit EntangledModel(EntangledParams params) : params(params) {}

  double coincidence_prob() const;   // per slot
  double expected_qber() const;
  double sifted_rate_bps() const;

  EntangledParams params;
};

}  // namespace qkd::optics
