// BitVector: a packed, growable vector of bits.
//
// This is the workhorse container of the QKD protocol stack: raw key symbols,
// sifted bits, Cascade subset masks, privacy-amplification inputs and distilled
// key material are all BitVectors. Bits are stored LSB-first inside 64-bit
// words; bit i lives in word i/64 at position i%64.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace qkd {

class BitVector {
 public:
  BitVector() = default;

  /// Constructs a vector of `n` bits, all zero.
  explicit BitVector(std::size_t n) : size_(n), words_(word_count(n), 0) {}

  /// Constructs from a literal, e.g. BitVector{1,0,1,1}.
  BitVector(std::initializer_list<int> bits);

  /// Parses a string of '0'/'1' characters; throws std::invalid_argument otherwise.
  static BitVector from_string(std::string_view bits);

  /// Packs the low `n` bits of `value`, LSB first.
  static BitVector from_uint64(std::uint64_t value, std::size_t n);

  /// Interprets each byte of `bytes` as 8 bits, LSB first within each byte.
  static BitVector from_bytes(std::span<const std::uint8_t> bytes);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // get/set/push_back are defined inline below: sifting, sampling and the
  // correctors call them once per bit.
  bool get(std::size_t i) const;
  void set(std::size_t i, bool v);
  void flip(std::size_t i);

  void push_back(bool v);
  void clear();
  void resize(std::size_t n);

  /// Appends all bits of `other`.
  void append(const BitVector& other);

  /// Appends the low `count` (<= 64) bits of `bits`, LSB first.
  void append_bits(std::uint64_t bits, std::size_t count);

  /// Returns bits [begin, begin+len).
  BitVector slice(std::size_t begin, std::size_t len) const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// Parity (XOR) of all bits.
  bool parity() const;

  /// Parity of the bits selected by `mask` (mask.size() must equal size()).
  bool masked_parity(const BitVector& mask) const;

  /// Parity of bits in [begin, end), a word at a time.
  bool range_parity(std::size_t begin, std::size_t end) const;

  /// Parity of bits in [begin, end) intersected with `mask`.
  bool masked_range_parity(const BitVector& mask, std::size_t begin,
                           std::size_t end) const;

  /// In-place XOR with another vector of the same size.
  BitVector& operator^=(const BitVector& other);
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }

  bool operator==(const BitVector& other) const;

  /// Number of positions where this and `other` differ (sizes must match).
  std::size_t hamming_distance(const BitVector& other) const;

  /// First 64 bits (or fewer) as an integer, LSB first.
  std::uint64_t to_uint64() const;

  /// Packs bits into bytes, LSB first within each byte; final partial byte zero-padded.
  std::vector<std::uint8_t> to_bytes() const;

  /// '0'/'1' rendering, bit 0 first.
  std::string to_string() const;

  /// Calls `visit(i)` for every set bit i, in increasing order, a word at a
  /// time: sparse bitmaps cost one step per word plus one per set bit.
  template <typename Visit>
  void for_each_set_bit(Visit&& visit) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// Direct word access for bulk algorithms (e.g. GF(2^n) multiplication).
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

  /// Zeroes any bits beyond size() in the last word (bulk writers must call this).
  void normalize_tail();

  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

inline bool BitVector::get(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVector::get");
  return (words_[i >> 6] >> (i & 63)) & 1;
}

inline void BitVector::set(std::size_t i, bool v) {
  if (i >= size_) throw std::out_of_range("BitVector::set");
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (v)
    words_[i >> 6] |= mask;
  else
    words_[i >> 6] &= ~mask;
}

inline void BitVector::push_back(bool v) {
  if (words_.size() * 64 == size_) words_.push_back(0);
  if (v) words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
  ++size_;
}

}  // namespace qkd
