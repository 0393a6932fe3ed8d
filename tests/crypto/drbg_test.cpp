#include "src/crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace qkd::crypto {
namespace {

TEST(Drbg, DeterministicForSeed) {
  Drbg a(42u), b(42u);
  EXPECT_EQ(a.generate(100), b.generate(100));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(1u), b(2u);
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, SequentialCallsDiffer) {
  Drbg d(7u);
  const Bytes first = d.generate(32);
  const Bytes second = d.generate(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, GenerateBitsExactLength) {
  Drbg d(9u);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    EXPECT_EQ(d.generate_bits(n).size(), n);
  }
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(5u), b(5u);
  const Bytes extra = {1, 2, 3};
  b.reseed(extra);
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(Drbg, OutputLooksBalanced) {
  Drbg d(11u);
  const qkd::BitVector bits = d.generate_bits(80000);
  const double ones = static_cast<double>(bits.popcount()) / bits.size();
  EXPECT_NEAR(ones, 0.5, 0.02);
}

TEST(Drbg, ByteSeedConstructor) {
  const Bytes seed = {0xde, 0xad};
  Drbg a(seed), b(seed);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u32(), 0u);  // vanishingly unlikely to be zero
}

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

TEST(Drbg, KnownAnswers) {
  // Captured from the allocating reference implementation: the stream is
  // part of every lockstep protocol, so its bytes may not move.
  Drbg d(2026u);
  EXPECT_EQ(hex(d.generate(1)), "94");
  EXPECT_EQ(hex(d.generate(4)), "a4f7374c");
  EXPECT_EQ(hex(d.generate(20)), "c3cb5f6f7a47e1e1e64b8b23061cd6ce41753382");
  EXPECT_EQ(hex(d.generate(21)),
            "38663b03a4c1eacce3e7e735de428a22339515fd11");
  const Bytes big = d.generate(576);
  EXPECT_EQ(hex(Sha1::hash(big)), "26784a24c04ab89feec7039e698e464ac108585d");
  EXPECT_EQ(hex(std::span(big).first(24)),
            "b7c433e9e1f6ca7ec1469f98c6fe825227f685d77c25d892");
  EXPECT_EQ(hex(std::span(big).last(24)),
            "a7c53aa1330870d6a9574053ad04d576f5ebcd71959744d7");
  EXPECT_EQ(d.next_u32(), 0xed22bc9du);
  EXPECT_EQ(d.next_u64(), 0x97106a16131a3f57ull);
  EXPECT_EQ(d.generate_bits(77).to_string(),
            "01001111101101001101001110011000000110101001110011111011011110"
            "101100111110110");
  EXPECT_EQ(hex(d.generate(8)), "febbaebc29be4f85");
}

}  // namespace
}  // namespace qkd::crypto
