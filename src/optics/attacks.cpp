#include "src/optics/attacks.hpp"

#include <stdexcept>

namespace qkd::optics {

InterceptResendAttack::InterceptResendAttack(double fraction)
    : fraction_(fraction) {
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("InterceptResendAttack: fraction not in [0,1]");
}

void InterceptResendAttack::apply(std::size_t slot, InFlightPulse& pulse,
                                  EveRecord& eve, qkd::Rng& rng) {
  if (pulse.photons == 0) return;
  if (!rng.next_bool(fraction_)) return;

  eve.mark_attacked(slot);
  const Basis eve_basis = basis_from_bit(rng.next_bool());
  bool eve_result;
  if (eve_basis == pulse.basis) {
    // Compatible measurement: deterministic outcome, and the pulse still
    // carries Alice's basis, so Eve knows her bit exactly.
    eve_result = pulse.value;
    eve.mark_known(slot);
  } else {
    // Incompatible: the outcome is uniformly random and the state collapses
    // into Eve's basis.
    eve_result = rng.next_bool();
  }
  // Resend a fresh single-photon-equivalent pulse prepared in Eve's basis
  // with her measured value. (Eve's source is ideal; she resends the same
  // photon number so the attack does not show up as loss.)
  pulse.basis = eve_basis;
  pulse.value = eve_result;
}

BeamsplitAttack::BeamsplitAttack(double tap_ratio) : tap_ratio_(tap_ratio) {
  if (tap_ratio < 0.0 || tap_ratio > 1.0)
    throw std::invalid_argument("BeamsplitAttack: tap ratio not in [0,1]");
}

void BeamsplitAttack::apply(std::size_t slot, InFlightPulse& pulse,
                            EveRecord& eve, qkd::Rng& rng) {
  unsigned captured = 0;
  for (unsigned i = 0; i < pulse.photons; ++i)
    if (rng.next_bool(tap_ratio_)) ++captured;
  if (captured == 0) return;
  pulse.photons -= captured;
  eve.photons_captured += captured;
  eve.mark_attacked(slot);
  // Eve stores the photon and measures after the sifting announcement, so a
  // single captured photon yields the full bit.
  eve.mark_known(slot);
}

void PhotonNumberSplittingAttack::apply(std::size_t slot, InFlightPulse& pulse,
                                        EveRecord& eve, qkd::Rng&) {
  if (pulse.photons < 2) return;
  pulse.photons -= 1;
  pulse.lossless_delivery = true;  // Eve compensates the loss she'd cause
  eve.photons_captured += 1;
  eve.mark_attacked(slot);
  eve.mark_known(slot);
}

void ChannelCutAttack::apply(std::size_t slot, InFlightPulse& pulse,
                             EveRecord& eve, qkd::Rng&) {
  if (pulse.photons > 0) eve.mark_attacked(slot);
  pulse.photons = 0;
}

void CompositeAttack::add(std::unique_ptr<Attack> attack) {
  attacks_.push_back(std::move(attack));
}

void CompositeAttack::apply(std::size_t slot, InFlightPulse& pulse,
                            EveRecord& eve, qkd::Rng& rng) {
  for (auto& attack : attacks_) attack->apply(slot, pulse, eve, rng);
}

}  // namespace qkd::optics
