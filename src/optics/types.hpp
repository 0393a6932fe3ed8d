// Shared types for the simulated weak-coherent BB84 physical layer.
//
// The paper's link (Fig. 3) encodes each qubit in the relative phase of a
// double pulse produced by unbalanced Mach-Zehnder interferometers: Alice
// applies one of four phase shifts {0, pi/2, pi, 3pi/2} encoding a
// (basis, value) pair; Bob applies 0 or pi/2 to choose a measurement basis.
#pragma once

#include <cstdint>

#include "src/common/bitvector.hpp"

namespace qkd::optics {

/// BB84 basis choice. In the phase encoding, kRectilinear contributes phase
/// 0 and kDiagonal contributes pi/2.
enum class Basis : std::uint8_t { kRectilinear = 0, kDiagonal = 1 };

inline Basis basis_from_bit(bool b) {
  return b ? Basis::kDiagonal : Basis::kRectilinear;
}

/// Alice's phase shift for a (basis, value) pair: phi = value*pi + basis*pi/2,
/// returned in units of pi/2 (0..3) to keep arithmetic exact.
inline unsigned alice_phase_quarter(Basis basis, bool value) {
  return (value ? 2u : 0u) + (basis == Basis::kDiagonal ? 1u : 0u);
}

/// Bob's phase shift in units of pi/2 (0 or 1).
inline unsigned bob_phase_quarter(Basis basis) {
  return basis == Basis::kDiagonal ? 1u : 0u;
}

/// Alice's modulator settings in a frame, one bit per trigger slot (an
/// Attack sees each pulse's photon number as it is emitted).
struct PulseTrainRecord {
  qkd::BitVector bases;   // bit i: Alice's basis in slot i (1 = diagonal)
  qkd::BitVector values;  // bit i: Alice's key bit in slot i

  std::size_t size() const { return bases.size(); }
};

/// Bob's receiver-side record for a frame.
struct DetectionRecord {
  qkd::BitVector detected;  // bit i: slot produced a usable single click
  qkd::BitVector bases;     // bit i: Bob's basis choice in slot i
  qkd::BitVector bits;      // bit i: measured value (meaningful iff detected)

  // Diagnostics (ground truth, not visible to the protocols):
  std::size_t double_clicks = 0;     // both APDs fired; slot discarded
  std::size_t dark_only_clicks = 0;  // click caused by dark count alone
  std::size_t signal_clicks = 0;     // click caused by >=1 real photon

  std::size_t size() const { return detected.size(); }
};

/// Ground truth about the eavesdropper's take for a frame.
struct EveRecord {
  qkd::BitVector attacked;  // bit i: Eve touched slot i
  qkd::BitVector known;     // bit i: Eve knows Alice's bit in slot i exactly
  std::size_t photons_captured = 0;

  void resize(std::size_t n) {
    attacked.resize(n);
    known.resize(n);
  }
};

/// Result of simulating one frame over the link.
struct FrameResult {
  PulseTrainRecord alice;
  DetectionRecord bob;
  EveRecord eve;
};

}  // namespace qkd::optics
