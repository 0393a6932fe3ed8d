#include "src/qkd/ec.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include <algorithm>

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

TEST(SubsetMask, DeterministicAndSeedSensitive) {
  EXPECT_EQ(subset_mask_from_seed(1, 500), subset_mask_from_seed(1, 500));
  EXPECT_NE(subset_mask_from_seed(1, 500), subset_mask_from_seed(2, 500));
}

TEST(SubsetMask, MasksAreLinearlyIndependentInPractice) {
  // The reproduction-note property: XORs of distinct masks must not collapse
  // into other masks of the family (the failure mode of literal LFSR
  // windows). Spot-check: mask(a) ^ mask(b) differs from every mask(c) for
  // a few dozen seeds.
  const std::size_t n = 256;
  const auto x = subset_mask_from_seed(10, n) ^ subset_mask_from_seed(11, n);
  for (std::uint32_t c = 0; c < 64; ++c) {
    EXPECT_NE(x, subset_mask_from_seed(c, n)) << c;
  }
}

TEST(LfsrMembers, MatchesMaskPositions) {
  const std::size_t n = 777;
  const auto members = lfsr_members(123, n);
  const auto mask = subset_mask_from_seed(123, n);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask.get(i)) {
      ASSERT_LT(idx, members.size());
      EXPECT_EQ(members[idx++], i);
    }
  }
  EXPECT_EQ(idx, members.size());
}

TEST(SeededPermutation, IsAPermutation) {
  const auto perm = seeded_permutation(99, 1000);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(SeededPermutation, DeterministicAndSeedSensitive) {
  EXPECT_EQ(seeded_permutation(5, 500), seeded_permutation(5, 500));
  EXPECT_NE(seeded_permutation(5, 500), seeded_permutation(6, 500));
}

TEST(PermutedView, MatchesThePermutationItsInverseAndTheGather) {
  QKD_SEEDED_RNG(rng, 9);
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 128u, 1000u}) {
    const auto bits = rng.next_bits(n);
    const PermutedView view = permuted_view(77, bits);
    const auto perm = seeded_permutation(77, n);
    EXPECT_EQ(view.perm, perm) << n;
    EXPECT_EQ(view.bits, gather_members(bits, perm)) << n;
    ASSERT_EQ(view.inv.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(view.inv[perm[i]], i);
  }
}

TEST(PermutedView, GatherOnlyBitsMatchTheFullView) {
  // Alice's oracle keeps only the gathered bits; they must be the view's,
  // draw for draw, at the word and byte edges and at random n in
  // [1, 5000].
  QKD_SEEDED_RNG(rng, 10);
  const std::size_t edges[] = {0, 1, 7, 8, 9, 63, 64, 65, 127, 128};
  for (std::size_t trial = 0; trial < 74; ++trial) {
    const std::size_t n =
        trial < std::size(edges) ? edges[trial] : 1 + rng.next_below(5000);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const auto bits = rng.next_bits(n);
    EXPECT_EQ(permuted_bits(seed, bits), permuted_view(seed, bits).bits)
        << "n=" << n << " seed=" << seed;
  }
}

TEST(ParityOfMembers, MatchesBruteForce) {
  QKD_SEEDED_RNG(rng, 1);
  const auto bits = rng.next_bits(300);
  const auto members = lfsr_members(7, 300);
  for (std::size_t begin : {0u, 1u, 10u}) {
    for (std::size_t len : {0u, 1u, 5u, 50u}) {
      if (begin + len > members.size()) continue;
      bool expected = false;
      for (std::size_t i = begin; i < begin + len; ++i)
        expected ^= bits.get(members[i]);
      EXPECT_EQ(parity_of_members(bits, members, begin, begin + len), expected);
    }
  }
  EXPECT_THROW(parity_of_members(bits, members, 5, members.size() + 1),
               std::out_of_range);
}

TEST(LocalParityOracle, CountsEveryDisclosure) {
  QKD_SEEDED_RNG(rng, 2);
  const auto bits = rng.next_bits(400);
  LocalParityOracle oracle(bits);
  ParityQuery q;
  q.kind = ParityQuery::Kind::kLfsrSubset;
  q.seed = 11;
  q.begin = 0;
  q.end = 10;
  for (int i = 0; i < 5; ++i) oracle.parity(q);
  EXPECT_EQ(oracle.disclosed(), 5u);
}

TEST(LocalParityOracle, AnswersMatchDirectComputation) {
  QKD_SEEDED_RNG(rng, 3);
  const auto bits = rng.next_bits(600);
  LocalParityOracle oracle(bits);

  ParityQuery lfsr_q;
  lfsr_q.kind = ParityQuery::Kind::kLfsrSubset;
  lfsr_q.seed = 21;
  const auto members = lfsr_members(21, 600);
  lfsr_q.begin = 3;
  lfsr_q.end = static_cast<std::uint32_t>(members.size() - 2);
  EXPECT_EQ(oracle.parity(lfsr_q),
            parity_of_members(bits, members, 3, members.size() - 2));

  ParityQuery perm_q;
  perm_q.kind = ParityQuery::Kind::kPermutedRange;
  perm_q.seed = 31;
  perm_q.begin = 100;
  perm_q.end = 200;
  const auto perm = seeded_permutation(31, 600);
  EXPECT_EQ(oracle.parity(perm_q), parity_of_members(bits, perm, 100, 200));
}

TEST(LocalParityOracle, CacheSurvivesManySeeds) {
  QKD_SEEDED_RNG(rng, 4);
  const auto bits = rng.next_bits(100);
  LocalParityOracle oracle(bits);
  // Touch more than the cache capacity worth of distinct seeds, then verify
  // a recent one still answers correctly.
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    ParityQuery q;
    q.kind = ParityQuery::Kind::kLfsrSubset;
    q.seed = seed;
    q.begin = 0;
    q.end = 1;
    oracle.parity(q);
  }
  const auto members = lfsr_members(200, 100);
  ParityQuery q;
  q.kind = ParityQuery::Kind::kLfsrSubset;
  q.seed = 200;
  q.begin = 0;
  q.end = static_cast<std::uint32_t>(members.size());
  EXPECT_EQ(oracle.parity(q),
            parity_of_members(bits, members, 0, members.size()));
}

}  // namespace
}  // namespace qkd::proto
