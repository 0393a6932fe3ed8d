// Error-correction substrate: parity queries between Bob (who drives
// correction) and Alice (who answers as a parity oracle).
//
// All three error-correction protocols in this library — the paper's BBN
// Cascade variant (Sec. 5), classic Brassard-Salvail Cascade [19], and the
// conventional block-parity baseline from the Appendix — reduce to one wire
// primitive: "Alice, what is the parity of this subset of your sifted
// bits?". Subsets are described compactly (an LFSR seed or a permutation
// seed plus a range), never as explicit bit lists. Every answered query
// reveals exactly one bit of parity information to Eve; the oracle counts
// them, and that count is the `d` fed into entropy estimation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bitvector.hpp"

namespace qkd::proto {

/// A parity question about a compactly-described subset of the sifted bits.
struct ParityQuery {
  enum class Kind : std::uint8_t {
    /// The paper's BBN LFSR-subset query. Members are the positions where
    /// subset_mask_from_seed(seed) (SplitMix64-seeded xoshiro bits) is 1,
    /// in increasing position order; the query covers members [begin, end).
    kLfsrSubset = 0,
    /// Members are seeded_permutation(seed)[begin..end).
    kPermutedRange = 1,
  };

  Kind kind = Kind::kLfsrSubset;
  std::uint32_t seed = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  bool operator==(const ParityQuery&) const = default;
};

/// Answers parity queries against a fixed bit string, a batch at a time:
/// one call is one exchange on the wire. The wire protocol and the
/// in-process fast path both go through this interface.
class ParityOracle {
 public:
  virtual ~ParityOracle() = default;

  /// Bit i is the parity of queries[i].
  virtual qkd::BitVector parities(std::span<const ParityQuery> queries) = 0;

  /// One query, sent as a batch of one.
  bool parity(const ParityQuery& query) { return parities({&query, 1}).get(0); }
};

/// Alice's oracle over her sifted bits; counts disclosures and keeps, per
/// announced seed, her string gathered into the subset's member order, so
/// every range parity is a word-level popcount.
class LocalParityOracle final : public ParityOracle {
 public:
  explicit LocalParityOracle(const qkd::BitVector& bits);

  /// Throws std::out_of_range if a query's range leaves its subset.
  qkd::BitVector parities(std::span<const ParityQuery> queries) override;

  /// Every query's parity, or nullopt, disclosing nothing, when any
  /// query's range leaves its subset.
  std::optional<qkd::BitVector> answer(std::span<const ParityQuery> queries);

  /// Number of parity bits disclosed so far (the `d` of the entropy
  /// estimate).
  std::size_t disclosed() const { return disclosed_; }

  /// Number of batches answered (round trips, on a wire).
  std::size_t exchanges() const { return exchanges_; }

 private:
  struct Gathered {
    ParityQuery::Kind kind;
    std::uint32_t seed;
    qkd::BitVector bits;  // the string in the subset's member order
  };
  const qkd::BitVector& gathered(const ParityQuery& query);

  const qkd::BitVector& bits_;
  std::size_t disclosed_ = 0;
  std::size_t exchanges_ = 0;
  std::vector<Gathered> cache_;  // most recent last
};

/// The subset membership mask both sides expand from an announced 32-bit
/// seed (one bit per sifted-bit position; expected density 1/2).
///
/// REPRODUCTION NOTE: the paper says the subsets are "pseudo-random bit
/// strings, from a Linear-Feedback Shift Register (LFSR) ... identified by a
/// 32-bit seed". Taken literally — n-bit windows of one fixed 32-bit LFSR
/// stream — every such mask lies in a <= 32-dimensional subspace of
/// GF(2)^n (windows are linear functions of the 32-bit state, and m-sequences
/// are closed under shift-and-add). At most 32 independent parity
/// constraints can ever be formed, so correction provably stalls beyond ~32
/// errors; we confirmed the stall empirically. BBN's deployed generator must
/// have differed in some detail the paper does not record. We therefore keep
/// the protocol and wire format (a 32-bit seed identifies each subset) but
/// expand the seed through a nonlinear mixer (SplitMix64 -> xoshiro) so that
/// distinct seeds yield effectively independent masks. DESIGN.md section 4
/// records this substitution.
qkd::BitVector subset_mask_from_seed(std::uint32_t seed, std::size_t n);

/// Positions selected by subset_mask_from_seed(seed) over `n` bits.
std::vector<std::uint32_t> lfsr_members(std::uint32_t seed, std::size_t n);

/// Deterministic Fisher-Yates permutation of [0, n) derived from `seed`;
/// both sides of the classic-Cascade exchange derive the same one.
std::vector<std::uint32_t> seeded_permutation(std::uint32_t seed,
                                              std::size_t n);

/// `bits` seen through seeded_permutation(seed, bits.size()), built as the
/// shuffle settles each entry.
struct PermutedView {
  std::vector<std::uint32_t> perm;  // permuted index -> position
  std::vector<std::uint32_t> inv;   // position -> permuted index
  qkd::BitVector bits;              // bits[perm[i]] at index i
};
PermutedView permuted_view(std::uint32_t seed, const qkd::BitVector& bits);

/// permuted_view(seed, bits).bits alone: the same shuffle's draws, moving
/// the bits' values instead of their positions, with no permutation or
/// inverse built. Alice's oracle keeps nothing else of a pass.
qkd::BitVector permuted_bits(std::uint32_t seed, const qkd::BitVector& bits);

/// `bits` at members, in member order.
qkd::BitVector gather_members(const qkd::BitVector& bits,
                              const std::vector<std::uint32_t>& members);

/// Parity of `bits` over members[begin..end), one bit at a time.
bool parity_of_members(const qkd::BitVector& bits,
                       const std::vector<std::uint32_t>& members,
                       std::size_t begin, std::size_t end);

/// Outcome accounting common to all error-correction strategies.
struct EcStats {
  std::size_t parity_queries = 0;  // == parity bits disclosed
  std::size_t corrections = 0;     // bits flipped on Bob's side
  std::size_t rounds = 0;          // protocol rounds / passes executed
  bool converged = false;          // protocol believes the strings now match
};

/// A member range [lo, hi) of one subset whose parity differs between
/// Alice and Bob; `bob` is Bob's string gathered into the member order.
struct RangeSearch {
  ParityQuery::Kind kind;
  std::uint32_t seed;
  const std::vector<std::uint32_t>* members;
  const qkd::BitVector* bob;
  std::size_t lo;
  std::size_t hi;

  bool done() const { return hi - lo < 2; }
  /// The erroneous position, once done().
  std::uint32_t position() const { return (*members)[lo]; }
};

/// One bisection level for every search not yet done(), in one batch: asks
/// Alice's parity of each left half and keeps the half whose parities
/// differ. Returns false, asking nothing, when every search is done. The
/// searches must cover pairwise-disjoint positions, so that no search's
/// answers depend on another's outcome.
bool bisect_level(std::span<RangeSearch> searches, ParityOracle& alice,
                  EcStats& stats);

}  // namespace qkd::proto
