// Shared types for the simulated weak-coherent BB84 physical layer.
//
// The paper's link (Fig. 3) encodes each qubit in the relative phase of a
// double pulse produced by unbalanced Mach-Zehnder interferometers: Alice
// applies one of four phase shifts {0, pi/2, pi, 3pi/2} encoding a
// (basis, value) pair; Bob applies 0 or pi/2 to choose a measurement basis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// The most slots a frame may have: a click names its slot in 32 bits.
inline constexpr std::size_t kMaxFrameSlots = std::size_t{1} << 32;

/// One usable single click, with both sides' settings in its slot (the
/// generator draws settings only where it visits, so a frame holds nothing
/// per slot). Bob's half (slot, bob_basis, bob_bit) stands alone: it is
/// all his side of sifting reads and all the two-process QframeFeed carries.
struct Click {
  std::uint32_t slot = 0;
  Basis alice_basis = Basis::kRectilinear;
  bool alice_value = false;
  Basis bob_basis = Basis::kRectilinear;
  bool bob_bit = false;  // the APD that fired (1 = D1)
  // Ground truth, not visible to the protocols: >=1 photon reached an APD
  // (else a dark count or an afterpulse fired alone).
  bool signal = false;

  bool operator==(const Click&) const = default;
};

/// Ground truth about the eavesdropper's take for a frame, as two sorted
/// slot lists. Attacks see slots in increasing order, so appending keeps
/// each list sorted; a repeat of the last slot (several attacks in one
/// CompositeAttack) is dropped, so each stays unique.
struct EveRecord {
  std::vector<std::uint32_t> attacked;  // slots Eve touched
  std::vector<std::uint32_t> known;     // slots where she knows Alice's bit
  std::size_t photons_captured = 0;

  void mark_attacked(std::size_t slot) { append(attacked, slot); }
  void mark_known(std::size_t slot) { append(known, slot); }

 private:
  static void append(std::vector<std::uint32_t>& slots, std::size_t slot) {
    const auto s = static_cast<std::uint32_t>(slot);
    if (slots.empty() || slots.back() != s) slots.push_back(s);
  }
};

/// Result of simulating one frame over the link: its size and its usable
/// clicks in slot order.
struct FrameResult {
  std::size_t slots = 0;
  std::vector<Click> clicks;  // sorted by slot
  EveRecord eve;
  // Diagnostic: slots where both APDs fired and the click was discarded.
  std::size_t double_clicks = 0;
};

}  // namespace qkd::optics
