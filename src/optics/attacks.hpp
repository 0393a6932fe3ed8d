// Eavesdropping attacks on the quantum channel (Section 6's "Disquisition on
// Eve").
//
// Eve is limited only by physics: she detects dim pulses with zero loss,
// fabricates indistinguishable pulses, and transports photons losslessly.
// Attacks plug into the link between Alice's transmitter and the fiber; each
// attack sees the true quantum state of the in-flight pulse and may measure,
// replace, or siphon photons. The simulator separately keeps ground truth of
// what Eve actually learned so entropy-estimation claims can be audited.
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/optics/types.hpp"

namespace qkd::optics {

/// The state of one pulse in flight, as an attack sees it. `basis`/`value`
/// describe the quantum state on the wire (an intercept-resend attack may
/// rewrite them); `photons` is the photon count entering the channel.
struct InFlightPulse {
  Basis basis;
  bool value;
  unsigned photons;
  /// When true the remaining photons bypass fiber loss (Eve transports them
  /// losslessly to Bob, as the PNS attack requires).
  bool lossless_delivery = false;
};

class Attack {
 public:
  virtual ~Attack() = default;

  /// Called once per photon-bearing slot, in increasing slot order (a
  /// pulse with no photons has nothing to tap, so attacks never see one).
  /// `slot` indexes the frame; `eve` collects ground truth through its
  /// mark_* appends. Implementations may mutate the pulse arbitrarily.
  virtual void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
                     qkd::Rng& rng) = 0;
};

/// Intercept-resend: Eve measures a fraction of pulses in a random basis and
/// resends a fresh pulse prepared in her basis/result. Induces a 25 % error
/// rate on the intercepted, sifted fraction — the "measurable disturbance"
/// that makes eavesdropping detectable (Sec. 1).
class InterceptResendAttack final : public Attack {
 public:
  /// `fraction` in [0,1]: probability each pulse is intercepted.
  explicit InterceptResendAttack(double fraction);

  void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
             qkd::Rng& rng) override;

  double fraction() const { return fraction_; }

 private:
  double fraction_;
};

/// Passive beamsplitting: a tap diverts each photon to Eve with probability
/// `tap_ratio`. Adds loss but no errors; Eve gains full knowledge of a slot
/// when she captures a photon AND the slot's basis is later announced equal
/// to her measurement basis (she stores photons, so she measures after the
/// announcement: every captured photon becomes a known bit).
class BeamsplitAttack final : public Attack {
 public:
  explicit BeamsplitAttack(double tap_ratio);

  void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
             qkd::Rng& rng) override;

  double tap_ratio() const { return tap_ratio_; }

 private:
  double tap_ratio_;
};

/// Idealized photon-number-splitting: Eve performs a quantum-nondemolition
/// photon-number measurement, steals exactly one photon from every
/// multi-photon pulse, stores it until bases are public, and forwards the
/// remaining photons to Bob over her own lossless channel. Transparent: no
/// added loss (indeed less) and zero induced QBER — the attack Brassard et
/// al. showed weak-coherent systems are particularly vulnerable to (Sec. 6).
class PhotonNumberSplittingAttack final : public Attack {
 public:
  PhotonNumberSplittingAttack() = default;

  void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
             qkd::Rng& rng) override;
};

/// Denial of service: Eve (or a backhoe) cuts the channel; no photons arrive.
class ChannelCutAttack final : public Attack {
 public:
  void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
             qkd::Rng& rng) override;
};

/// Applies several attacks in sequence (e.g. PNS plus intercept-resend).
class CompositeAttack final : public Attack {
 public:
  void add(std::unique_ptr<Attack> attack);

  void apply(std::size_t slot, InFlightPulse& pulse, EveRecord& eve,
             qkd::Rng& rng) override;

 private:
  std::vector<std::unique_ptr<Attack>> attacks_;
};

}  // namespace qkd::optics
