#include "src/qkd/cascade_bbn.hpp"

#include <algorithm>
#include <vector>

namespace qkd::proto {
namespace {

/// One announced subset: its seed, expanded member list, Bob's bits in
/// member order, and whether Alice's full-subset parity differs from Bob's.
struct Subset {
  std::uint32_t seed;
  std::vector<std::uint32_t> members;
  qkd::BitVector bob;
  bool mismatched = false;
};

}  // namespace

EcStats bbn_cascade_correct(qkd::BitVector& bob_bits, ParityOracle& alice,
                            const BbnCascadeConfig& config) {
  EcStats stats;
  const std::size_t n = bob_bits.size();
  if (n == 0) {
    stats.converged = true;
    return stats;
  }

  std::uint32_t next_seed = config.seed_base;
  unsigned clean_rounds = 0;

  for (unsigned round = 0; round < config.max_rounds; ++round) {
    ++stats.rounds;

    // Announce this round's subsets and exchange their full parities in
    // one batch.
    std::vector<Subset> subsets;
    std::vector<ParityQuery> batch;
    subsets.reserve(config.subsets_per_round);
    for (unsigned i = 0; i < config.subsets_per_round; ++i) {
      Subset s;
      s.seed = next_seed++;
      s.members = lfsr_members(s.seed, n);
      if (s.members.empty()) continue;
      s.bob = gather_members(bob_bits, s.members);
      batch.push_back({ParityQuery::Kind::kLfsrSubset, s.seed, 0,
                       static_cast<std::uint32_t>(s.members.size())});
      subsets.push_back(std::move(s));
    }
    if (!batch.empty()) {
      const qkd::BitVector alice_parity = alice.parities(batch);
      stats.parity_queries += batch.size();
      for (std::size_t i = 0; i < subsets.size(); ++i)
        subsets[i].mismatched = alice_parity.get(i) != subsets[i].bob.parity();
    }

    bool round_had_mismatch = false;
    // "This will clear up some discrepancies but may introduce other new
    // ones, and so the process continues": loop until no subset mismatches.
    for (;;) {
      const auto target =
          std::find_if(subsets.begin(), subsets.end(),
                       [](const Subset& s) { return s.mismatched; });
      if (target == subsets.end()) break;
      round_had_mismatch = true;

      RangeSearch search{ParityQuery::Kind::kLfsrSubset, target->seed,
                         &target->members, &target->bob, 0,
                         target->members.size()};
      while (bisect_level({&search, 1}, alice, stats)) {
      }
      const std::uint32_t fixed_pos = search.position();
      bob_bits.flip(fixed_pos);
      ++stats.corrections;

      // Both sides flip the recorded parity of every subset containing the
      // corrected bit (local bookkeeping, nothing on the wire).
      for (auto& s : subsets) {
        const auto at =
            std::lower_bound(s.members.begin(), s.members.end(), fixed_pos);
        if (at == s.members.end() || *at != fixed_pos) continue;
        s.bob.flip(static_cast<std::size_t>(at - s.members.begin()));
        s.mismatched = !s.mismatched;
      }
    }

    if (!round_had_mismatch) {
      if (++clean_rounds >= config.clean_rounds_to_converge) {
        stats.converged = true;
        return stats;
      }
    } else {
      clean_rounds = 0;
    }
  }
  // Round limit hit; convergence unknown — report honestly.
  stats.converged = false;
  return stats;
}

}  // namespace qkd::proto
