#include "src/crypto/gf2n.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::crypto {
namespace {

// Bitwise schoolbook reference for the word-level kernels: one flip per
// pair of set bits, then one reduction step per set bit above the degree.
// It shares no code with clmul or reduce_mod.
qkd::BitVector schoolbook_clmul(const qkd::BitVector& a,
                                const qkd::BitVector& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::size_t> b_terms;
  for (std::size_t j = 0; j < b.size(); ++j)
    if (b.get(j)) b_terms.push_back(j);
  std::vector<std::uint8_t> coeff(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a.get(i)) continue;
    for (std::size_t j : b_terms) coeff[i + j] ^= 1;
  }
  qkd::BitVector out(coeff.size());
  for (std::size_t k = 0; k < coeff.size(); ++k) out.set(k, coeff[k] != 0);
  return out;
}

void schoolbook_reduce(qkd::BitVector& value, const SparsePoly& mod) {
  const unsigned n = mod.degree();
  for (std::size_t p = value.size(); p-- > n;) {
    if (!value.get(p)) continue;
    for (unsigned t : mod.exponents) value.flip(p - n + t);  // t = n clears p
  }
  value.resize(n);
}

qkd::BitVector schoolbook_multiply(const qkd::BitVector& a,
                                   const qkd::BitVector& b,
                                   const SparsePoly& mod) {
  qkd::BitVector prod = schoolbook_clmul(a, b);
  schoolbook_reduce(prod, mod);
  return prod;
}

TEST(Clmul, SmallKnownProducts) {
  // (x+1)(x+1) = x^2+1 over GF(2).
  const auto a = qkd::BitVector::from_string("11");  // 1 + x
  const auto sq = clmul(a, a);
  EXPECT_EQ(sq.to_string(), "101");
  // (x^2+x+1)(x+1) = x^3 + 2x^2 + 2x + 1 = x^3+1 over GF(2).
  const auto b = qkd::BitVector::from_string("111");
  const auto p = clmul(b, a);
  EXPECT_EQ(p.to_string(), "1001");
}

TEST(Clmul, MultiplicationByOneIsIdentity) {
  QKD_SEEDED_RNG(rng, 5);
  const auto a = rng.next_bits(200);
  const auto one = qkd::BitVector::from_string("1");
  auto p = clmul(a, one);
  p.resize(a.size());
  EXPECT_EQ(p, a);
}

TEST(Clmul, Commutes) {
  QKD_SEEDED_RNG(rng, 6);
  const auto a = rng.next_bits(130);
  const auto b = rng.next_bits(77);
  EXPECT_EQ(clmul(a, b), clmul(b, a));
}

TEST(Clmul, MatchesSchoolbookOnUnevenLengths) {
  // Lengths off the word grid on either side, including one-bit operands
  // and a top bit set at the last position of a partial word.
  QKD_SEEDED_RNG(rng, 13);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1},    {1, 130},  {63, 65},  {64, 64},   {65, 200}, {127, 1},
      {200, 333}, {700, 29}, {129, 4},  {1000, 999}};
  for (const auto& [la, lb] : shapes) {
    auto a = rng.next_bits(la);
    auto b = rng.next_bits(lb);
    a.set(la - 1, true);
    EXPECT_EQ(clmul(a, b), schoolbook_clmul(a, b)) << la << "x" << lb;
    EXPECT_EQ(clmul(b, a), schoolbook_clmul(a, b)) << lb << "x" << la;
  }
  EXPECT_TRUE(clmul(qkd::BitVector{}, rng.next_bits(10)).empty());
}

TEST(ReduceMod, KnownSmallReduction) {
  // x^3 mod (x^2 + x + 1) = x*(x^2) = x*(x+1) = x^2+x = (x+1)+x = 1.
  qkd::BitVector v(4);
  v.set(3, true);  // x^3
  reduce_mod(v, SparsePoly{{2, 1, 0}});
  EXPECT_EQ(v.to_string(), "10");  // wait: x^3 mod (x^2+x+1)
}

TEST(ReduceMod, MiddleTermNextToDegreeMatchesSchoolbook) {
  // x^n + x^(n-1) + 1 folds one bit per step: every chunk must land below
  // itself however close the middle term sits to the degree.
  QKD_SEEDED_RNG(rng, 14);
  for (unsigned n : {2u, 33u, 64u, 100u, 129u}) {
    const SparsePoly mod{{n, n - 1, 0}};
    for (std::size_t len : {std::size_t{n}, std::size_t{2 * n - 1},
                            std::size_t{3 * n + 5}}) {
      auto v = rng.next_bits(len);
      auto expect = v;
      schoolbook_reduce(expect, mod);
      reduce_mod(v, mod);
      EXPECT_EQ(v, expect) << "n=" << n << " len=" << len;
    }
  }
}

TEST(ReduceMod, WideMiddleTermsMatchSchoolbook) {
  // Lower terms 64 or more apart from the degree: full-word chunks that
  // straddle word boundaries at every offset.
  QKD_SEEDED_RNG(rng, 15);
  for (const SparsePoly& mod :
       {SparsePoly{{200, 130, 0}}, SparsePoly{{257, 70, 65, 1, 0}},
        SparsePoly{{1536, 21, 6, 2, 0}}}) {
    auto v = rng.next_bits(2 * mod.degree() + 37);
    auto expect = v;
    schoolbook_reduce(expect, mod);
    reduce_mod(v, mod);
    EXPECT_EQ(v, expect) << "n=" << mod.degree();
  }
}

TEST(IsIrreducible, SmallPolynomials) {
  EXPECT_TRUE(is_irreducible(SparsePoly{{1, 0}}));       // x + 1
  EXPECT_TRUE(is_irreducible(SparsePoly{{2, 1, 0}}));    // x^2+x+1
  EXPECT_TRUE(is_irreducible(SparsePoly{{3, 1, 0}}));    // x^3+x+1
  EXPECT_TRUE(is_irreducible(SparsePoly{{4, 1, 0}}));    // x^4+x+1
  EXPECT_FALSE(is_irreducible(SparsePoly{{2, 0}}));      // x^2+1 = (x+1)^2
  EXPECT_FALSE(is_irreducible(SparsePoly{{4, 2, 0}}));   // (x^2+x+1)^2
  EXPECT_FALSE(is_irreducible(SparsePoly{{3, 1}}));      // no constant term
  EXPECT_TRUE(is_irreducible(SparsePoly{{8, 4, 3, 1, 0}}));  // AES field poly
}

TEST(IrreduciblePoly, ServesAllStackDegrees) {
  // Privacy amplification rounds n up to a multiple of 32 (paper, Sec. 5);
  // these are the degrees the QKD stack exercises. Every returned polynomial
  // must pass the irreducibility test — this also validates the built-in
  // table entries since wrong hints would be replaced by searched values.
  for (unsigned n : {32u, 64u, 96u, 128u, 160u, 192u, 224u, 256u, 384u, 512u,
                     1024u, 2048u}) {
    const SparsePoly p = irreducible_poly(n);
    EXPECT_EQ(p.degree(), n);
    EXPECT_LE(p.exponents.size(), 5u) << "not low-weight for n=" << n;
    EXPECT_TRUE(is_irreducible(p)) << "n=" << n;
  }
}

TEST(IrreduciblePoly, RejectsTrivialDegrees) {
  EXPECT_THROW(irreducible_poly(0), std::invalid_argument);
  EXPECT_THROW(irreducible_poly(1), std::invalid_argument);
}

TEST(Gf2Field, MultiplyMatchesSchoolbookAcrossWidths) {
  // Every ladder width (including 96, 160 and 224, off the 64-bit grid) and
  // 8192, on random pairs and on zero, one, all-ones, top-bit-only and short
  // operands.
  QKD_SEEDED_RNG(rng, 16);
  for (unsigned n : {32u, 64u, 96u, 128u, 160u, 192u, 224u, 256u, 384u, 512u,
                     768u, 1024u, 1536u, 2048u, 3072u, 4096u, 8192u}) {
    const Gf2Field field(n);
    qkd::BitVector ones(n), top(n);
    for (std::size_t i = 0; i < n; ++i) ones.set(i, true);
    top.set(n - 1, true);
    const auto r = rng.next_bits(n);
    const std::vector<std::pair<qkd::BitVector, qkd::BitVector>> cases = {
        {rng.next_bits(n), rng.next_bits(n)},
        {rng.next_bits(n), rng.next_bits(n)},
        {qkd::BitVector(n), r},
        {qkd::BitVector::from_string("1"), r},
        {ones, r},
        {ones, ones},
        {top, top},
        {top, r},
        {rng.next_bits(n / 2 + 3), r},
        {qkd::BitVector::from_string("1011"), rng.next_bits(n - 1)},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const auto& [a, b] = cases[c];
      EXPECT_EQ(field.multiply(a, b),
                schoolbook_multiply(a, b, field.modulus()))
          << "n=" << n << " case " << c;
    }
  }
}

TEST(Gf2Field, MultiplicativeIdentityAndZero) {
  const Gf2Field f(64);
  QKD_SEEDED_RNG(rng, 7);
  const auto a = rng.next_bits(64);
  const auto one = qkd::BitVector::from_uint64(1, 64);
  const auto zero = qkd::BitVector(64);
  EXPECT_EQ(f.multiply(a, one), a);
  EXPECT_EQ(f.multiply(a, zero), zero);
}

TEST(Gf2Field, MultiplicationAssociativeAndCommutative) {
  const Gf2Field f(96);
  QKD_SEEDED_RNG(rng, 8);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.next_bits(96);
    const auto b = rng.next_bits(96);
    const auto c = rng.next_bits(96);
    EXPECT_EQ(f.multiply(a, b), f.multiply(b, a));
    EXPECT_EQ(f.multiply(f.multiply(a, b), c), f.multiply(a, f.multiply(b, c)));
  }
}

TEST(Gf2Field, DistributesOverAddition) {
  const Gf2Field f(128);
  QKD_SEEDED_RNG(rng, 9);
  for (int i = 0; i < 20; ++i) {
    const auto a = rng.next_bits(128);
    const auto b = rng.next_bits(128);
    const auto c = rng.next_bits(128);
    const auto lhs = f.multiply(a, f.add(b, c));
    const auto rhs = f.add(f.multiply(a, b), f.multiply(a, c));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Gf2Field, FrobeniusFixedField) {
  // In GF(2^n), a^(2^n) == a for every element (Frobenius has order n).
  const Gf2Field f(32);
  QKD_SEEDED_RNG(rng, 10);
  for (int i = 0; i < 10; ++i) {
    const auto a = rng.next_bits(32);
    EXPECT_EQ(f.pow2k(a, 32), a);
  }
}

TEST(Gf2Field, SquareMatchesSelfMultiply) {
  const Gf2Field f(160);
  QKD_SEEDED_RNG(rng, 11);
  const auto a = rng.next_bits(160);
  EXPECT_EQ(f.pow2k(a, 1), f.multiply(a, a));
}

TEST(Gf2Field, RejectsWrongDegreeModulus) {
  EXPECT_THROW(Gf2Field(32, SparsePoly{{16, 5, 3, 1, 0}}),
               std::invalid_argument);
}

TEST(Gf2Field, RejectsNonCanonicalModulus) {
  // Strictly descending exponents, the first equal to n, the last 0.
  for (const auto& exponents : std::vector<std::vector<unsigned>>{
           {32, 7, 7, 3, 2, 0},  // a repeated term names another field
           {32, 7, 3, 2},        // x divides the modulus
           {32, 40, 0},          // a term above the degree
           {32, 2, 7, 0},        // out of order
           {32}}) {
    EXPECT_THROW(Gf2Field(32, SparsePoly{exponents}), std::invalid_argument)
        << ::testing::PrintToString(exponents);
  }
  EXPECT_NO_THROW(Gf2Field(32, SparsePoly{{32, 7, 3, 2, 0}}));
}

TEST(ReduceMod, RejectsNonCanonicalModulus) {
  qkd::BitVector v(80);
  v.set(79, true);
  EXPECT_THROW(reduce_mod(v, SparsePoly{{32, 40, 0}}), std::invalid_argument);
  EXPECT_THROW(reduce_mod(v, SparsePoly{{32, 7, 7, 0}}), std::invalid_argument);
  EXPECT_THROW(reduce_mod(v, SparsePoly{{32, 7, 3}}), std::invalid_argument);
}

TEST(Gf2Field, RejectsOversizeOperands) {
  const Gf2Field f(32);
  QKD_SEEDED_RNG(rng, 12);
  EXPECT_THROW(f.multiply(rng.next_bits(33), rng.next_bits(32)),
               std::invalid_argument);
}

TEST(Gf2Field, NonTrivialElementHasFullOrbitUnderFrobenius) {
  // x generates a nontrivial Frobenius orbit unless it lies in a subfield —
  // it cannot for a degree-32 field element equal to x.
  const Gf2Field f(32);
  qkd::BitVector x(32);
  x.set(1, true);
  EXPECT_NE(f.pow2k(x, 16), x);  // not fixed by the halfway Frobenius power
  EXPECT_EQ(f.pow2k(x, 32), x);
}

}  // namespace
}  // namespace qkd::crypto
