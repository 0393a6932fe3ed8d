#include "src/qkd/cascade_classic.hpp"

#include <algorithm>
#include <vector>

namespace qkd::proto {
namespace {

/// One pass: Bob's string gathered into a seeded permutation's order and
/// cut into fixed-size blocks, so a block parity is a range parity.
struct Pass {
  std::uint32_t perm_seed;
  std::size_t block_size;
  PermutedView bob;          // Bob's bits in permuted order
  qkd::BitVector mismatch;   // per block: Alice's parity != Bob's
  qkd::BitVector searching;  // per block: under bisection

  std::size_t num_blocks() const {
    return (bob.perm.size() + block_size - 1) / block_size;
  }
  std::size_t block_begin(std::size_t b) const { return b * block_size; }
  std::size_t block_end(std::size_t b) const {
    return std::min(bob.perm.size(), (b + 1) * block_size);
  }
};

}  // namespace

EcStats classic_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                                double qber_estimate,
                                const ClassicCascadeConfig& config) {
  EcStats stats;
  const std::size_t n = bob_bits.size();
  if (n == 0 || config.passes == 0) {
    stats.converged = true;
    return stats;
  }

  const double q = std::max(qber_estimate, 1e-4);
  std::size_t k1 = static_cast<std::size_t>(config.block_factor / q);
  k1 = std::clamp(k1, config.min_block, n);

  // Every pass asks every one of its block parities, and Alice's answers
  // do not depend on Bob's fixes, so all of them go out in the first batch.
  std::vector<Pass> passes(config.passes);
  std::vector<ParityQuery> batch;
  for (unsigned pi = 0; pi < config.passes; ++pi) {
    Pass& pass = passes[pi];
    pass.perm_seed = config.seed_base + pi;
    pass.block_size = std::min<std::size_t>(n, k1 << pi);
    pass.bob = permuted_view(pass.perm_seed, bob_bits);
    for (std::size_t b = 0; b < pass.num_blocks(); ++b)
      batch.push_back({ParityQuery::Kind::kPermutedRange, pass.perm_seed,
                       static_cast<std::uint32_t>(pass.block_begin(b)),
                       static_cast<std::uint32_t>(pass.block_end(b))});
  }
  const qkd::BitVector alice_parity = alice.parities(batch);
  stats.parity_queries += batch.size();
  std::size_t answer = 0;
  for (Pass& pass : passes) {
    pass.mismatch = qkd::BitVector(pass.num_blocks());
    pass.searching = qkd::BitVector(pass.num_blocks());
    for (std::size_t b = 0; b < pass.num_blocks(); ++b)
      if (alice_parity.get(answer++) !=
          pass.bob.bits.range_parity(pass.block_begin(b),
                                     pass.block_end(b)))
        pass.mismatch.set(b, true);
  }

  // Passes [0, active) take part. Each round trip bisects, one level, every
  // search in flight; a mismatched block of an active pass joins, newest
  // pass first, once it shares no position with a block in flight.
  std::size_t active = 1;
  std::vector<RangeSearch> flight;
  qkd::BitVector taken(n);  // positions of the blocks in flight
  auto pass_of = [&](const RangeSearch& s) -> Pass& {
    return passes[s.seed - config.seed_base];  // pass pi has seed base + pi
  };
  // A waiting block can only join after a search ends or a pass begins.
  bool changed = true;
  for (;;) {
    for (std::size_t p = active; changed && p-- > 0;) {
      Pass& pass = passes[p];
      pass.mismatch.for_each_set_bit([&](std::size_t b) {
        if (pass.searching.get(b)) return;
        const std::size_t lo = pass.block_begin(b), hi = pass.block_end(b);
        const auto& perm = pass.bob.perm;
        for (std::size_t i = lo; i < hi; ++i)
          if (taken.get(perm[i])) return;
        for (std::size_t i = lo; i < hi; ++i) taken.set(perm[i], true);
        pass.searching.set(b, true);
        flight.push_back({ParityQuery::Kind::kPermutedRange, pass.perm_seed,
                          &pass.bob.perm, &pass.bob.bits, lo, hi});
      });
    }
    changed = false;
    if (flight.empty()) {
      if (active == passes.size()) break;
      ++active;
      changed = true;
      continue;
    }
    bisect_level(flight, alice, stats);

    // Apply each finished search's fix: it flips the block holding that bit
    // in every pass, which may re-open blocks in earlier passes.
    std::erase_if(flight, [&](const RangeSearch& s) {
      if (!s.done()) return false;
      changed = true;
      const std::uint32_t fixed = s.position();
      bob_bits.flip(fixed);
      ++stats.corrections;
      for (Pass& other : passes) {
        const std::uint32_t at = other.bob.inv[fixed];
        other.bob.bits.flip(at);
        other.mismatch.flip(at / other.block_size);
      }
      Pass& pass = pass_of(s);
      const std::size_t b = s.lo / pass.block_size;
      pass.searching.set(b, false);
      for (std::size_t i = pass.block_begin(b); i < pass.block_end(b); ++i)
        taken.set(pass.bob.perm[i], false);
      return true;
    });
    // Truthful answers make every fix remove a real error, so a string of n
    // bits needs at most n; past that an answer was wrong (a parity altered
    // in transit) and the fixes would chase it forever.
    if (stats.corrections > n) {
      stats.rounds = active;
      stats.converged = false;
      return stats;
    }
  }

  // Every known parity pair matches once the last pass drains.
  stats.rounds = active;
  stats.converged = true;
  return stats;
}

}  // namespace qkd::proto
