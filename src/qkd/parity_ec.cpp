#include "src/qkd/parity_ec.hpp"

#include <algorithm>
#include <vector>

namespace qkd::proto {

EcStats naive_parity_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                             const NaiveParityConfig& config) {
  EcStats stats;
  const std::size_t n = bob_bits.size();
  if (n == 0) {
    stats.converged = true;
    return stats;
  }
  stats.rounds = 1;
  const PermutedView permuted = permuted_view(config.perm_seed, bob_bits);
  const std::size_t block = std::max<std::size_t>(2, config.block_size);

  // Every block parity in one batch.
  std::vector<ParityQuery> batch;
  for (std::size_t lo = 0; lo < n; lo += block)
    batch.push_back({ParityQuery::Kind::kPermutedRange, config.perm_seed,
                     static_cast<std::uint32_t>(lo),
                     static_cast<std::uint32_t>(std::min(n, lo + block))});
  const qkd::BitVector alice_parity = alice.parities(batch);
  stats.parity_queries += batch.size();

  // The blocks are disjoint, so every mismatched one bisects in lockstep
  // down to one error.
  std::vector<RangeSearch> searches;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const ParityQuery& q = batch[b];
    if (alice_parity.get(b) != permuted.bits.range_parity(q.begin, q.end))
      searches.push_back(
          {q.kind, q.seed, &permuted.perm, &permuted.bits, q.begin, q.end});
  }
  while (bisect_level(searches, alice, stats)) {
  }
  for (const RangeSearch& s : searches) {
    bob_bits.flip(s.position());
    ++stats.corrections;
  }
  // The single pass cannot certify equality (even-error blocks pass
  // silently); report convergence honestly as unknown.
  stats.converged = false;
  return stats;
}

}  // namespace qkd::proto
