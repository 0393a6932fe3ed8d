#include "src/common/bitvector.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include <stdexcept>

#include "src/common/rng.hpp"

namespace qkd {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(BitVector, InitializerListOrdersBitsLsbFirst) {
  BitVector v{1, 0, 1, 1};
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_TRUE(v.get(3));
  EXPECT_EQ(v.to_uint64(), 0b1101u);
}

TEST(BitVector, FromStringRoundTrips) {
  const std::string s = "011010001111";
  EXPECT_EQ(BitVector::from_string(s).to_string(), s);
}

TEST(BitVector, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVector::from_string("01x"), std::invalid_argument);
}

TEST(BitVector, FromUint64MasksHighBits) {
  const BitVector v = BitVector::from_uint64(0xff, 4);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.to_uint64(), 0xfu);
}

TEST(BitVector, FromBytesLsbFirstWithinByte) {
  const std::uint8_t data[] = {0x01, 0x80};
  const BitVector v = BitVector::from_bytes(data);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(7));
  EXPECT_FALSE(v.get(8));
  EXPECT_TRUE(v.get(15));
}

TEST(BitVector, ToBytesRoundTrips) {
  QKD_SEEDED_RNG(rng, 7);
  const BitVector v = rng.next_bits(128);
  EXPECT_EQ(BitVector::from_bytes(v.to_bytes()), v);
}

TEST(BitVector, FromBytesReadsEveryByteAtAnyLength) {
  // Whole words and the ragged last word are read by different loops.
  QKD_SEEDED_RNG(rng, 8);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 707u}) {
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const BitVector v = BitVector::from_bytes(bytes);
    ASSERT_EQ(v.size(), 8 * n);
    for (std::size_t i = 0; i < 8 * n; ++i)
      ASSERT_EQ(v.get(i), ((bytes[i / 8] >> (i % 8)) & 1) != 0) << n << " " << i;
    EXPECT_EQ(v.to_bytes(), bytes) << n;
  }
}

TEST(BitVector, SetGetFlipAcrossWordBoundary) {
  BitVector v(130);
  v.set(63, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, OutOfRangeAccessThrows) {
  BitVector v(8);
  EXPECT_THROW(v.get(8), std::out_of_range);
  EXPECT_THROW(v.set(8, true), std::out_of_range);
  EXPECT_THROW(v.flip(100), std::out_of_range);
}

TEST(BitVector, PushBackGrows) {
  BitVector v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v.get(i), i % 3 == 0) << i;
}

TEST(BitVector, AppendAlignedAndUnaligned) {
  QKD_SEEDED_RNG(rng, 11);
  for (std::size_t left : {0u, 1u, 63u, 64u, 65u, 128u}) {
    const BitVector a = rng.next_bits(left);
    const BitVector b = rng.next_bits(97);
    BitVector joined = a;
    joined.append(b);
    ASSERT_EQ(joined.size(), left + 97);
    for (std::size_t i = 0; i < left; ++i) EXPECT_EQ(joined.get(i), a.get(i));
    for (std::size_t i = 0; i < 97; ++i)
      EXPECT_EQ(joined.get(left + i), b.get(i));
  }
}

TEST(BitVector, AppendAtEveryOffsetMatchesBitByBit) {
  // append() moves whole words at any offset; push_back is the reference.
  QKD_SEEDED_RNG(rng, 12);
  for (std::size_t left = 0; left <= 130; ++left) {
    for (std::size_t right : {0u, 1u, 63u, 64u, 65u, 200u}) {
      const BitVector a = rng.next_bits(left);
      const BitVector b = rng.next_bits(right);
      BitVector joined = a;
      joined.append(b);
      BitVector reference = a;
      for (std::size_t i = 0; i < right; ++i) reference.push_back(b.get(i));
      ASSERT_EQ(joined, reference) << left << " + " << right;
      const std::size_t tail = joined.size() & 63;
      if (tail != 0)
        ASSERT_EQ(joined.words().back() >> tail, 0u)
            << "tail word zeroed past bit " << joined.size();
    }
  }
}

TEST(BitVector, AppendToItself) {
  QKD_SEEDED_RNG(rng, 14);
  for (std::size_t n : {0u, 3u, 64u, 100u}) {
    BitVector v = rng.next_bits(n);
    BitVector reference = v;
    for (std::size_t i = 0; i < n; ++i) reference.push_back(v.get(i));
    v.append(v);
    EXPECT_EQ(v, reference) << n;
  }
}

TEST(BitVector, SliceMatchesBitwiseExtraction) {
  QKD_SEEDED_RNG(rng, 13);
  const BitVector v = rng.next_bits(300);
  for (std::size_t begin : {0u, 1u, 63u, 64u, 65u, 130u}) {
    const BitVector s = v.slice(begin, 100);
    for (std::size_t i = 0; i < 100; ++i)
      EXPECT_EQ(s.get(i), v.get(begin + i)) << begin << "+" << i;
  }
  EXPECT_THROW(v.slice(250, 100), std::out_of_range);
}

TEST(BitVector, ParityAndPopcount) {
  BitVector v(200);
  EXPECT_FALSE(v.parity());
  v.set(3, true);
  EXPECT_TRUE(v.parity());
  v.set(199, true);
  EXPECT_FALSE(v.parity());
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, MaskedParityCountsIntersection) {
  BitVector v = BitVector::from_string("110100");
  BitVector mask = BitVector::from_string("101010");
  // Intersection = positions {0, 3(off), ...}: v&mask = 1,0,0,1? v=1,1,0,1,0,0
  // mask selects 0,2,4 -> bits 1,0,0 -> parity 1.
  EXPECT_TRUE(v.masked_parity(mask));
  EXPECT_THROW(v.masked_parity(BitVector(5)), std::invalid_argument);
}

TEST(BitVector, MaskedRangeParityMatchesBruteForce) {
  QKD_SEEDED_RNG(rng, 17);
  const BitVector v = rng.next_bits(257);
  const BitVector mask = rng.next_bits(257);
  for (std::size_t begin : {0u, 5u, 64u, 100u}) {
    for (std::size_t end : std::vector<std::size_t>{begin, begin + 1, 128, 256, 257}) {
      if (end < begin || end > 257) continue;
      bool expected = false;
      for (std::size_t i = begin; i < end; ++i)
        expected ^= v.get(i) && mask.get(i);
      EXPECT_EQ(v.masked_range_parity(mask, begin, end), expected)
          << begin << ".." << end;
    }
  }
}

TEST(BitVector, RangeParityMatchesBruteForce) {
  QKD_SEEDED_RNG(rng, 18);
  const BitVector v = rng.next_bits(300);
  for (std::size_t begin : {0u, 1u, 63u, 64u, 65u, 190u}) {
    for (std::size_t end = begin; end <= 300; end += 7) {
      bool expected = false;
      for (std::size_t i = begin; i < end; ++i) expected ^= v.get(i);
      EXPECT_EQ(v.range_parity(begin, end), expected) << begin << ".." << end;
    }
  }
  EXPECT_EQ(v.range_parity(0, 300), v.parity());
  EXPECT_THROW(v.range_parity(5, 301), std::out_of_range);
  EXPECT_THROW(v.range_parity(9, 8), std::out_of_range);
}

TEST(BitVector, AppendBitsMatchesPushBack) {
  QKD_SEEDED_RNG(rng, 20);
  BitVector fast, slow;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t word = rng.next_u64();
    const std::size_t count = rng.next_below(65);
    fast.append_bits(word, count);
    for (std::size_t b = 0; b < count; ++b) slow.push_back((word >> b) & 1);
    ASSERT_EQ(fast, slow) << i;
  }
  EXPECT_THROW(fast.append_bits(0, 65), std::invalid_argument);
}

TEST(BitVector, XorAndHammingDistance) {
  QKD_SEEDED_RNG(rng, 19);
  const BitVector a = rng.next_bits(500);
  BitVector b = a;
  b.flip(0);
  b.flip(255);
  b.flip(499);
  EXPECT_EQ(a.hamming_distance(b), 3u);
  const BitVector x = a ^ b;
  EXPECT_EQ(x.popcount(), 3u);
}

TEST(BitVector, ResizeShrinkClearsTailBits) {
  BitVector v(100);
  for (std::size_t i = 0; i < 100; ++i) v.set(i, true);
  v.resize(70);
  EXPECT_EQ(v.size(), 70u);
  EXPECT_EQ(v.popcount(), 70u);
  v.resize(100);
  // Re-grown bits must be zero.
  EXPECT_EQ(v.popcount(), 70u);
}

TEST(BitVector, EqualityIsValueBased) {
  BitVector a = BitVector::from_string("1010");
  BitVector b = BitVector::from_string("1010");
  BitVector c = BitVector::from_string("1011");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == BitVector::from_string("10100"));
}

}  // namespace
}  // namespace qkd
