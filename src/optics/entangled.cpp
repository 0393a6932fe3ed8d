#include "src/optics/entangled.hpp"

#include <cmath>
#include <stdexcept>

namespace qkd::optics {

double EntangledParams::transmittance() const {
  const double total_db = attenuation_db_per_km * fiber_km + insertion_loss_db;
  return std::pow(10.0, -total_db / 10.0);
}

EntangledLink::EntangledLink(EntangledParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  if (params_.pair_probability < 0.0 || params_.pair_probability > 1.0)
    throw std::invalid_argument("EntangledLink: pair probability not in [0,1]");
  if (params_.visibility < 0.0 || params_.visibility > 1.0)
    throw std::invalid_argument("EntangledLink: visibility not in [0,1]");
}

FrameResult EntangledLink::run_frame(std::size_t n_slots) {
  if (n_slots > kMaxFrameSlots)
    throw std::invalid_argument("EntangledLink: frame exceeds 2^32 slots");
  FrameResult frame;
  frame.slots = n_slots;

  const double transmittance = params_.transmittance();

  for (std::size_t slot = 0; slot < n_slots; ++slot) {
    ++stats_.slots;
    // Both sides pick random bases every gate, pair or not.
    const bool alice_basis = rng_.next_bool();
    const bool bob_basis = rng_.next_bool();

    const bool pair = rng_.next_bool(params_.pair_probability);
    const bool double_pair =
        pair && rng_.next_bool(params_.double_pair_probability /
                               params_.pair_probability);
    if (double_pair) {
      ++stats_.double_pairs;
      // Eve can split off the spare pair without disturbing the first: the
      // entangled analogue of the multi-photon leak — but it is per
      // *received* pair, the Sec. 6 distinction.
      frame.eve.mark_attacked(slot);
      frame.eve.mark_known(slot);
      ++frame.eve.photons_captured;
    }
    if (pair) ++stats_.pairs_emitted;

    // Alice's local measurement.
    const bool alice_detects =
        pair && rng_.next_bool(params_.alice_efficiency);
    // Her outcome is intrinsically random.
    const bool alice_value = rng_.next_bool();

    // Bob's photon crosses the fiber.
    const bool bob_signal =
        pair && rng_.next_bool(transmittance * params_.bob_efficiency);
    bool bob_value;
    if (bob_signal && alice_detects) {
      if (alice_basis == bob_basis) {
        // Correlated up to visibility; double pairs decorrelate (the second
        // pair is independent, so a swap yields a random outcome).
        const bool correlated =
            !double_pair && rng_.next_bool((1.0 + params_.visibility) / 2.0);
        bob_value = correlated ? alice_value : !alice_value;
        if (double_pair) bob_value = rng_.next_bool();
      } else {
        bob_value = rng_.next_bool();
      }
    } else if (bob_signal) {
      // Bob caught a photon but Alice missed hers: uncorrelated click.
      bob_value = rng_.next_bool();
    } else if (rng_.next_bool(2.0 * params_.dark_count_prob)) {
      bob_value = rng_.next_bool();  // dark count masquerades as a detection
    } else {
      continue;
    }

    // A usable slot needs both sides to have registered something; Alice
    // announces her detection slots during sifting, so Bob-only clicks are
    // discarded there. We model the coincidence test here.
    if (!alice_detects) continue;
    frame.clicks.push_back({static_cast<std::uint32_t>(slot),
                            basis_from_bit(alice_basis), alice_value,
                            basis_from_bit(bob_basis), bob_value, bob_signal});
    ++stats_.coincidences;
  }
  return frame;
}

double EntangledModel::coincidence_prob() const {
  return params.pair_probability * params.alice_efficiency *
         params.transmittance() * params.bob_efficiency;
}

double EntangledModel::expected_qber() const {
  // Matched-basis error sources: imperfect visibility + decorrelated double
  // pairs + dark-count accidentals.
  const double p_coincidence = coincidence_prob();
  const double p_dark_accidental = params.pair_probability *
                                   params.alice_efficiency * 2.0 *
                                   params.dark_count_prob;
  const double p_double = params.double_pair_probability *
                          params.alice_efficiency * params.transmittance() *
                          params.bob_efficiency;
  const double visibility_err = (1.0 - params.visibility) / 2.0;
  const double total = p_coincidence + p_dark_accidental;
  if (total <= 0.0) return 0.0;
  const double errors = (p_coincidence - p_double) * visibility_err +
                        p_double * 0.5 + p_dark_accidental * 0.5;
  return errors / total;
}

double EntangledModel::sifted_rate_bps() const {
  return 0.5 * params.pulse_rate_hz * coincidence_prob();
}

}  // namespace qkd::optics
