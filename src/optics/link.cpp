#include "src/optics/link.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/optics/interference.hpp"

namespace qkd::optics {
namespace {

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// The slots of a Bernoulli(p) process, visited by geometric gaps instead
/// of one draw per slot.
class EventStream {
 public:
  explicit EventStream(double p)
      : p_(p),
        inv_rate_(p > 0.0 && p < 1.0 ? -1.0 / std::log1p(-p) : 0.0) {}

  /// The first event slot in [from, limit), or kNever if there is none.
  /// p = 0 and p = 1 draw nothing.
  std::size_t next(qkd::Rng& rng, std::size_t from, std::size_t limit) const {
    if (p_ <= 0.0 || from >= limit) return kNever;
    if (p_ >= 1.0) return from;
    // Misses before the first hit: floor(E / -ln(1 - p)), E ~ Exp(1), so
    // P(gap >= k) = (1 - p)^k.
    const double gap = std::floor(rng.next_exponential() * inv_rate_);
    // Compared as doubles: a huge gap never reaches a cast.
    if (!(gap < static_cast<double>(limit - from))) return kNever;
    return from + static_cast<std::size_t>(gap);
  }

 private:
  double p_;
  double inv_rate_;  // -1 / ln(1 - p)
};

/// Photon number of a pulse known to carry at least one photon:
/// N ~ Poisson(mu) conditioned on N >= 1, by inversion for the weak pulses
/// QKD uses, by rejection where N = 0 is negligible.
class ZeroTruncatedPoisson {
 public:
  explicit ZeroTruncatedPoisson(double mu)
      : mu_(mu), p_emit_(-std::expm1(-mu)), p_one_(mu * std::exp(-mu)) {}

  /// P(N >= 1): the rate of photon-bearing slots.
  double p_emit() const { return p_emit_; }

  /// `uniform` in [0, 1) drives the inversion; `rng` serves the bright
  /// pulses' rejection loop.
  unsigned operator()(double uniform, qkd::Rng& rng) const {
    if (mu_ >= 30.0) {
      unsigned n;
      do n = rng.next_poisson(mu_);
      while (n == 0);
      return n;
    }
    // Walk P(N = k) from k = 1 until it covers u * P(N >= 1).
    double u = uniform * p_emit_;
    double pmf = p_one_;
    unsigned n = 1;
    while (u >= pmf && pmf > 0.0) {
      u -= pmf;
      ++n;
      pmf *= mu_ / n;
    }
    return n;
  }

 private:
  double mu_;
  double p_emit_;
  double p_one_;
};

}  // namespace

double LinkParams::transmittance() const {
  const double total_db = attenuation_db_per_km * fiber_km + insertion_loss_db;
  return std::pow(10.0, -total_db / 10.0);
}

WeakCoherentLink::WeakCoherentLink(LinkParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.mean_photon_number < 0.0)
    throw std::invalid_argument("WeakCoherentLink: negative photon number");
  if (params_.detector_efficiency < 0.0 || params_.detector_efficiency > 1.0)
    throw std::invalid_argument("WeakCoherentLink: efficiency not in [0,1]");
  if (params_.interferometer_visibility < 0.0 ||
      params_.interferometer_visibility > 1.0)
    throw std::invalid_argument("WeakCoherentLink: visibility not in [0,1]");
}

FrameResult WeakCoherentLink::run_frame(std::size_t n_slots, Attack* attack) {
  if (n_slots > kMaxFrameSlots)
    throw std::invalid_argument("WeakCoherentLink: frame exceeds 2^32 slots");
  FrameResult frame;
  frame.slots = n_slots;
  stats_.pulses += n_slots;

  const double capture =
      params_.central_peak_fraction * params_.detector_efficiency;
  const double reach = params_.transmittance() * capture;
  // With no attack, Poisson thinning is exact: emit only the photons that
  // reach an APD, Poisson(mu * reach) per slot. An attack must see every
  // pulse as emitted, so it keeps mu and per-photon survival.
  const bool tapped = attack != nullptr;
  const ZeroTruncatedPoisson photon_number(params_.mean_photon_number *
                                           (tapped ? 1.0 : reach));
  const double dark = params_.dark_count_prob;
  const double afterpulse = params_.afterpulse_prob;
  // One stream covers every gate, with signal or without: a gate is dark
  // when either APD fires on its own, 1 - (1 - d)^2, and of those gates a
  // share d^2 / (1 - (1 - d)^2) = d / (2 - d) fire both.
  const double p_dark_gate = dark * (2.0 - dark);
  const double p_both_dark = dark / (2.0 - dark);
  const EventStream emissions(photon_number.p_emit());
  const EventStream dark_gates(p_dark_gate);
  const EventStream misframes(params_.misframe_prob);

  // P(a photon routes to D1), indexed by the pulse's phase quarter and
  // Bob's: the interference law, evaluated once a frame.
  std::array<double, 8> route_to_d1{};
  for (unsigned pulse_q = 0; pulse_q < 4; ++pulse_q)
    for (unsigned bob_q = 0; bob_q < 2; ++bob_q)
      route_to_d1[pulse_q * 2 + bob_q] = p_route_to_d1(
          pulse_q, bob_q, params_.interferometer_visibility);

  // Room for the expected clicks and a few standard deviations more.
  const double expected_clicks =
      static_cast<double>(n_slots) *
      (-std::expm1(-params_.mean_photon_number * reach) + p_dark_gate);
  frame.clicks.reserve(static_cast<std::size_t>(
      expected_clicks + 8.0 * std::sqrt(expected_clicks) + 16.0));

  std::size_t next_emission = emissions.next(rng_, 0, n_slots);
  std::size_t next_dark = dark_gates.next(rng_, 0, n_slots);
  std::size_t next_misframe = misframes.next(rng_, 0, n_slots);
  // While an afterpulse is pending, the following gate is an event too.
  std::size_t next_afterpulse =
      afterpulse_pending_[0] || afterpulse_pending_[1] ? 0 : kNever;
  // The frame's counts stay in locals, where the compiler can keep them in
  // registers across the loop; stats_ takes them at the end.
  Stats tally;

  for (;;) {
    const std::size_t slot =
        std::min({next_emission, next_dark, next_misframe, next_afterpulse});
    if (slot >= n_slots) break;

    // --- Modulator settings, drawn only where something happens: one RNG
    // word's top 3 bits are Alice's basis and value and Bob's basis; 53 of
    // its low 61 bits are the uniform behind the photon number.
    const std::uint64_t word = rng_.next_u64();
    const unsigned settings = static_cast<unsigned>(word >> 61);
    const Basis alice_basis = basis_from_bit(settings & 1);
    const bool alice_value = (settings & 2) != 0;
    const Basis bob_basis = basis_from_bit(settings & 4);

    // --- Transmitter: the slot's pulse, empty unless the emission stream
    // is here; Eve taps only photon-bearing pulses.
    InFlightPulse pulse{alice_basis, alice_value, 0,
                        /*lossless_delivery=*/false};
    const bool emitted = slot == next_emission;
    if (emitted) {
      const double uniform =
          static_cast<double>((word << 3) >> 11) * 0x1.0p-53;
      pulse.photons = photon_number(uniform, rng_);
      if (tapped) attack->apply(slot, pulse, frame.eve, rng_);
    }

    bool click[2] = {false, false};
    bool any_signal = false;
    if (slot == next_misframe) {
      // Bright-pulse framing failure: the gate never opens for this slot.
      ++tally.misframed_slots;
    } else {
      // --- Fiber + receiver optics: each photon survives loss and the
      // detector independently; the survivors route by interference.
      const double survive =
          pulse.lossless_delivery ? capture : (tapped ? reach : 1.0);
      unsigned detected_photons = 0;
      for (unsigned photon = 0; photon < pulse.photons; ++photon)
        detected_photons += rng_.next_bool(survive);
      if (detected_photons > 0) {
        const double p_d1 =
            route_to_d1[alice_phase_quarter(pulse.basis, pulse.value) * 2 +
                        bob_phase_quarter(bob_basis)];
        for (unsigned photon = 0; photon < detected_photons; ++photon)
          click[rng_.next_bool(p_d1) ? 1 : 0] = true;
        any_signal = true;
      }

      // --- Dark counts: both APDs at d / (2 - d) of the dark gates, else
      // one of them, picked by a fair bit of the same word.
      if (slot == next_dark) {
        const std::uint64_t dark_word = rng_.next_u64();
        if (static_cast<double>(dark_word >> 11) * 0x1.0p-53 < p_both_dark) {
          click[0] = click[1] = true;
        } else {
          click[dark_word & 1] = true;
        }
      }

      // --- Afterpulsing from the previous gate.
      for (int d = 0; d < 2; ++d)
        if (afterpulse_pending_[d] && rng_.next_bool(afterpulse))
          click[d] = true;
    }
    // A misframe or a quiet gate clears the pending afterpulses.
    afterpulse_pending_[0] = afterpulse > 0.0 && click[0];
    afterpulse_pending_[1] = afterpulse > 0.0 && click[1];
    next_afterpulse =
        afterpulse_pending_[0] || afterpulse_pending_[1] ? slot + 1 : kNever;

    if (emitted) next_emission = emissions.next(rng_, slot + 1, n_slots);
    if (slot == next_dark) next_dark = dark_gates.next(rng_, slot + 1, n_slots);
    if (slot == next_misframe)
      next_misframe = misframes.next(rng_, slot + 1, n_slots);

    // --- Click resolution: exactly one APD firing yields a usable bit.
    const bool single = click[0] ^ click[1];
    tally.double_clicks += click[0] & click[1];
    tally.detections += single;
    tally.signal_clicks += single & any_signal;
    tally.dark_only_clicks += single & !any_signal;
    if (single)
      frame.clicks.push_back({static_cast<std::uint32_t>(slot), alice_basis,
                              alice_value, bob_basis, click[1], any_signal});
  }
  frame.double_clicks = tally.double_clicks;
  stats_.detections += tally.detections;
  stats_.double_clicks += tally.double_clicks;
  stats_.dark_only_clicks += tally.dark_only_clicks;
  stats_.signal_clicks += tally.signal_clicks;
  stats_.misframed_slots += tally.misframed_slots;
  return frame;
}

}  // namespace qkd::optics
