// The paper's error-correction protocol: a novel variant of Cascade (Sec. 5).
//
// "Our version works by defining a number of subsets (currently 64) of the
// sifted bits and forming the parities of each subset. ... The subsets are
// pseudo-random bit strings, from a Linear-Feedback Shift Register (LFSR)
// and are identified by a 32-bit seed for the LFSR. Once an error bit has
// been found and fixed, both sides inspect their records of subsets and
// subranges, and flip the recorded parity of those that contained that bit.
// This will clear up some discrepancies but may introduce other new ones,
// and so the process continues."
//
// Bob drives: each round announces 64 fresh LFSR seeds, compares subset
// parities with Alice, and bisects every mismatching subset down to a single
// error bit. Fixing a bit updates the recorded parities of all subsets that
// contain it; newly-mismatching subsets are re-searched. Rounds repeat until
// one passes with no discrepancy (or the round limit trips). The protocol is
// adaptive exactly as the paper claims: at low error rates it discloses
// little beyond the 64 subset parities per round.
//
// A round's subset parities go out as one batch. The bisections stay one
// question per exchange: the subsets overlap, so one fix can change which
// subsets mismatch next.
#pragma once

#include <cstdint>

#include "src/common/bitvector.hpp"
#include "src/qkd/ec.hpp"

namespace qkd::proto {

struct BbnCascadeConfig {
  /// Subsets announced per round. Paper: "currently 64".
  unsigned subsets_per_round = 64;
  /// Rounds with zero discrepancies required to declare convergence.
  unsigned clean_rounds_to_converge = 1;
  /// Hard cap on protocol rounds.
  unsigned max_rounds = 64;
  /// Base value from which per-round subset seeds are derived; both sides
  /// derive the same seeds from the announced value.
  std::uint32_t seed_base = 0x5eed0000u;
};

/// Runs the protocol: corrects `bob_bits` in place against Alice's string
/// (reachable only through `alice`, the parity oracle). Returns accounting.
EcStats bbn_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                            const BbnCascadeConfig& config = {});

}  // namespace qkd::proto
