// Classic Cascade (Brassard & Salvail [19]) — the baseline the paper's
// variant is measured against in the E5 ablation bench.
//
// Pass 1 splits a seeded pseudo-random permutation of the bits into blocks
// of size k1 ~ 0.73/QBER; each block's parity is compared and mismatching
// blocks are bisected to fix one error. Later passes double the block size
// under fresh permutations. The protocol's namesake effect: fixing an error
// in pass i flips the parity of the blocks containing that bit in earlier
// passes, whose (already known) parities now mismatch and can be searched
// again, each fix potentially cascading further corrections.
//
// The dialogue runs in lockstep batches. Every pass asks all of its block
// parities and Alice's answers do not depend on Bob's fixes, so the first
// batch carries every pass's block parities. After that each batch is one
// bisection level of every block in flight. The blocks in flight are
// mismatched and pairwise disjoint: disjoint blocks share no bit, so no
// block's search can change another's answers, and the dialogue asks the
// questions some serial order would ask. When a search ends, its fix flips
// the block holding that bit in every pass; then any mismatched block of
// the passes begun so far joins the flight, newest pass first, once it
// shares no bit with a block in flight. A pass begins when nothing of the
// earlier passes is in flight or mismatched.
#pragma once

#include <cstdint>

#include "src/common/bitvector.hpp"
#include "src/qkd/ec.hpp"

namespace qkd::proto {

struct ClassicCascadeConfig {
  /// Number of passes; Brassard & Salvail found 4 sufficient in practice.
  unsigned passes = 4;
  /// Initial block size is chosen as ~ alpha / estimated QBER.
  double block_factor = 0.73;
  /// Clamp for pathological estimates.
  std::size_t min_block = 4;
  /// Permutation seeds are derived from this announced base.
  std::uint32_t seed_base = 0xCA5CADEu;
};

/// Corrects `bob_bits` in place against Alice's parity oracle.
/// `qber_estimate` sizes the first-pass blocks (from sacrificial sampling or
/// a prior batch); it only affects efficiency, not correctness.
EcStats classic_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                                double qber_estimate,
                                const ClassicCascadeConfig& config = {});

}  // namespace qkd::proto
