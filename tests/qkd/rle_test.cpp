#include "src/qkd/rle.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

TEST(Rle, EmptyBitmap) {
  const qkd::BitVector empty;
  EXPECT_EQ(rle_decode(rle_encode(empty)), empty);
}

TEST(Rle, RoundTripsPatterns) {
  for (const char* pattern :
       {"0", "1", "01", "10", "0000000", "1111111", "010101",
        "0000000100000000000000110000"}) {
    const auto bits = qkd::BitVector::from_string(pattern);
    EXPECT_EQ(rle_decode(rle_encode(bits)), bits) << pattern;
  }
}

TEST(Rle, RoundTripsRandomDense) {
  QKD_SEEDED_RNG(rng, 1);
  for (std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    const auto bits = rng.next_bits(n);
    EXPECT_EQ(rle_decode(rle_encode(bits)), bits) << n;
  }
}

TEST(Rle, RoundTripsSparseDetectionBitmap) {
  // The actual use case: ~0.3 % detection probability over a 1 M slot frame.
  QKD_SEEDED_RNG(rng, 2);
  qkd::BitVector bits(100000);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (rng.next_bool(0.003)) bits.set(i, true);
  EXPECT_EQ(rle_decode(rle_encode(bits)), bits);
}

TEST(Rle, CompressesSparseBitmapsHard) {
  // Appendix: runs of "no detection" must take very little space.
  QKD_SEEDED_RNG(rng, 3);
  qkd::BitVector bits(1 << 20);
  std::size_t detections = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (rng.next_bool(0.003)) {
      bits.set(i, true);
      ++detections;
    }
  }
  const Bytes encoded = rle_encode(bits);
  const std::size_t raw = raw_bitmap_bytes(bits.size());
  // ~2 varints per detection vs 128 KiB raw: at least 10x smaller here.
  EXPECT_LT(encoded.size(), raw / 10);
  EXPECT_LT(encoded.size(), detections * 5 + 16);
}

TEST(Rle, DenseBitmapDoesNotExplode) {
  // Worst case (alternating bits) must stay within ~2 bytes/transition.
  qkd::BitVector bits(1000);
  for (std::size_t i = 0; i < bits.size(); i += 2) bits.set(i, true);
  EXPECT_LT(rle_encode(bits).size(), 2 * bits.size() + 16);
}

TEST(Rle, RejectsMalformedInput) {
  EXPECT_THROW(rle_decode(Bytes{}), std::invalid_argument);
  // Header says 8 bits but no runs follow.
  Bytes truncated;
  put_varint(truncated, 8);
  EXPECT_THROW(rle_decode(truncated), std::invalid_argument);
  // Run overflowing the declared size.
  Bytes overflow;
  put_varint(overflow, 4);
  put_varint(overflow, 100);
  EXPECT_THROW(rle_decode(overflow), std::invalid_argument);
  // Trailing junk after a complete bitmap.
  Bytes trailing = rle_encode(qkd::BitVector::from_string("0101"));
  trailing.push_back(0x00);
  EXPECT_THROW(rle_decode(trailing), std::invalid_argument);
}

/// The run walk the encoder is defined by, one bit at a time.
Bytes reference_rle_encode(const qkd::BitVector& bits) {
  Bytes out;
  put_varint(out, bits.size());
  if (bits.empty()) return out;
  bool current = false;
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.get(i) == current) {
      ++run;
    } else {
      put_varint(out, run);
      current = !current;
      run = 1;
    }
  }
  put_varint(out, run);
  return out;
}

TEST(Rle, EncodingMatchesTheBitwiseRunWalk) {
  QKD_SEEDED_RNG(rng, 4);
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 128u, 200u, 4097u, 70000u}) {
    for (double density : {0.0, 0.003, 0.3, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(density));
      qkd::BitVector bits(n);
      for (std::size_t i = 0; i < n; ++i)
        if (rng.next_bool(density)) bits.set(i, true);
      const Bytes encoded = rle_encode(bits);
      EXPECT_EQ(encoded, reference_rle_encode(bits));
      EXPECT_EQ(rle_decode(encoded), bits);
    }
  }
  // Runs that end exactly on, and just past, word boundaries.
  for (const char* pattern :
       {"1", "0", "10", "01", "110", "001"}) {
    for (std::size_t shift : {62u, 63u, 64u, 65u, 127u, 128u}) {
      qkd::BitVector bits(shift);
      for (std::size_t i = 0; i < shift; ++i) bits.set(i, i % 2 == 0);
      bits.append(qkd::BitVector::from_string(pattern));
      EXPECT_EQ(rle_encode(bits), reference_rle_encode(bits)) << shift;
      EXPECT_EQ(rle_decode(rle_encode(bits)), bits) << shift;
    }
  }
}

TEST(Rle, DecodesZeroLengthRunsAnywhere) {
  // The decoder accepts empty runs mid-stream (the encoder only emits a
  // leading one): "0-run 2, 1-run 0, 0-run 1, 1-run 3" is 000111.
  Bytes encoded;
  for (std::uint64_t v : {6u, 2u, 0u, 1u, 3u}) put_varint(encoded, v);
  EXPECT_EQ(rle_decode(encoded), qkd::BitVector::from_string("000111"));
}

}  // namespace
}  // namespace qkd::proto
