// A pass-through tap on the quantum channel, for tests that read the
// photon numbers Alice's source emits.
//
// Any Attack on the line makes WeakCoherentLink emit pulses at the source's
// mu and call Attack::apply once per photon-bearing slot, so a tap that
// records `pulse.photons` and leaves the pulse alone observes the source's
// photon statistics without changing the frame. A wrapped attack, if any,
// sees each pulse after it has been recorded.
//
//   PhotonTap tap;
//   const FrameResult frame = tap.run(link, 1 << 20);
//   ... tap.photons()[slot] ...   // 0 where the pulse was empty
#pragma once

#include <cstddef>
#include <vector>

#include "src/optics/attacks.hpp"
#include "src/optics/link.hpp"

namespace qkd::testing {

class PhotonTap final : public qkd::optics::Attack {
 public:
  explicit PhotonTap(qkd::optics::Attack* inner = nullptr) : inner_(inner) {}

  /// Runs one frame with this tap on the line; photons() then holds the
  /// frame's emitted photon number per slot.
  qkd::optics::FrameResult run(qkd::optics::WeakCoherentLink& link,
                               std::size_t n_slots) {
    photons_.assign(n_slots, 0);
    return link.run_frame(n_slots, this);
  }

  const std::vector<unsigned>& photons() const { return photons_; }

  void apply(std::size_t slot, qkd::optics::InFlightPulse& pulse,
             qkd::optics::EveRecord& eve, qkd::Rng& rng) override {
    photons_.at(slot) = pulse.photons;
    if (inner_ != nullptr) inner_->apply(slot, pulse, eve, rng);
  }

 private:
  qkd::optics::Attack* inner_;
  std::vector<unsigned> photons_;
};

}  // namespace qkd::testing
