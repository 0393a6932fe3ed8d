#include "src/common/bitvector.hpp"

#include <bit>
#include <stdexcept>

namespace qkd {

BitVector::BitVector(std::initializer_list<int> bits) {
  words_.reserve(word_count(bits.size()));
  for (int b : bits) push_back(b != 0);
}

BitVector BitVector::from_string(std::string_view bits) {
  BitVector v;
  v.words_.reserve(word_count(bits.size()));
  for (char c : bits) {
    if (c != '0' && c != '1')
      throw std::invalid_argument("BitVector::from_string: invalid character");
    v.push_back(c == '1');
  }
  return v;
}

BitVector BitVector::from_uint64(std::uint64_t value, std::size_t n) {
  if (n > 64) throw std::invalid_argument("BitVector::from_uint64: n > 64");
  BitVector v(n);
  if (n > 0) {
    v.words_[0] = (n == 64) ? value : (value & ((std::uint64_t{1} << n) - 1));
  }
  return v;
}

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes) {
  BitVector v(bytes.size() * 8);
  // Whole words are assembled from eight bytes in a local, which the
  // compiler merges into one load: every authenticated message passes
  // through here twice, once per Wegman-Carter tag.
  const std::size_t full = bytes.size() / 8;
  for (std::size_t w = 0; w < full; ++w) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8; ++b)
      word |= std::uint64_t{bytes[8 * w + b]} << (8 * b);
    v.words_[w] = word;
  }
  for (std::size_t i = 8 * full; i < bytes.size(); ++i)
    v.words_[full] |= std::uint64_t{bytes[i]} << (8 * (i % 8));
  return v;
}

void BitVector::flip(std::size_t i) {
  if (i >= size_) throw std::out_of_range("BitVector::flip");
  words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
}

void BitVector::clear() {
  size_ = 0;
  words_.clear();
}

void BitVector::resize(std::size_t n) {
  words_.resize(word_count(n), 0);
  size_ = n;
  normalize_tail();
}

void BitVector::append_bits(std::uint64_t bits, std::size_t count) {
  if (count > 64) throw std::invalid_argument("BitVector::append_bits: > 64");
  if (count == 0) return;
  if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
  const std::size_t offset = size_ & 63;
  if (offset == 0) {
    words_.push_back(bits);
  } else {
    words_.back() |= bits << offset;
    if (offset + count > 64) words_.push_back(bits >> (64 - offset));
  }
  size_ += count;
}

void BitVector::append(const BitVector& other) {
  // Appending to itself would write the source's last word before reading
  // it; append a copy instead.
  if (&other == this) {
    const BitVector copy(other);
    append(copy);
    return;
  }
  // Whole words at any offset: each source word lands in the (zero-tailed)
  // current word shifted up, and its high part starts the next word. Source
  // bits past the new size fall into the tail that normalize_tail() clears.
  const std::size_t shift = size_ & 63;
  const std::size_t base = size_ >> 6;
  words_.resize(word_count(size_ + other.size_), 0);
  if (shift == 0) {
    for (std::size_t w = 0; w < other.words_.size(); ++w)
      words_[base + w] = other.words_[w];
  } else {
    for (std::size_t w = 0; w < other.words_.size(); ++w) {
      words_[base + w] |= other.words_[w] << shift;
      if (base + w + 1 < words_.size())
        words_[base + w + 1] = other.words_[w] >> (64 - shift);
    }
  }
  size_ += other.size_;
  normalize_tail();
}

BitVector BitVector::slice(std::size_t begin, std::size_t len) const {
  if (begin + len > size_) throw std::out_of_range("BitVector::slice");
  BitVector out(len);
  const std::size_t shift = begin & 63;
  const std::size_t base = begin >> 6;
  if (shift == 0) {
    for (std::size_t w = 0; w < out.words_.size(); ++w)
      out.words_[w] = words_[base + w];
  } else {
    for (std::size_t w = 0; w < out.words_.size(); ++w) {
      std::uint64_t lo = words_[base + w] >> shift;
      std::uint64_t hi = (base + w + 1 < words_.size())
                             ? (words_[base + w + 1] << (64 - shift))
                             : 0;
      out.words_[w] = lo | hi;
    }
  }
  out.normalize_tail();
  return out;
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVector::parity() const {
  std::uint64_t acc = 0;
  for (std::uint64_t w : words_) acc ^= w;
  return std::popcount(acc) & 1;
}

bool BitVector::masked_parity(const BitVector& mask) const {
  if (mask.size_ != size_)
    throw std::invalid_argument("BitVector::masked_parity: size mismatch");
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) acc ^= words_[w] & mask.words_[w];
  return std::popcount(acc) & 1;
}

namespace {

/// Parity of bits [begin, end) of the words `word(w)` yields, a word at a
/// time. The caller has checked the range.
template <typename Word>
bool range_word_parity(std::size_t begin, std::size_t end, Word&& word) {
  if (begin == end) return false;
  const std::size_t wb = begin >> 6, we = (end - 1) >> 6;
  std::uint64_t acc = 0;
  for (std::size_t w = wb; w <= we; ++w) {
    std::uint64_t bits = word(w);
    if (w == wb) {
      const std::size_t off = begin & 63;
      bits &= ~std::uint64_t{0} << off;
    }
    if (w == we) {
      const std::size_t off = end - (w << 6);  // 1..64 bits valid in last word
      if (off < 64) bits &= (std::uint64_t{1} << off) - 1;
    }
    acc ^= bits;
  }
  return std::popcount(acc) & 1;
}

}  // namespace

bool BitVector::range_parity(std::size_t begin, std::size_t end) const {
  if (begin > end || end > size_)
    throw std::out_of_range("BitVector::range_parity: bad range");
  return range_word_parity(begin, end,
                           [&](std::size_t w) { return words_[w]; });
}

bool BitVector::masked_range_parity(const BitVector& mask, std::size_t begin,
                                    std::size_t end) const {
  if (mask.size_ != size_)
    throw std::invalid_argument("BitVector::masked_range_parity: size mismatch");
  if (begin > end || end > size_)
    throw std::out_of_range("BitVector::masked_range_parity: bad range");
  return range_word_parity(begin, end, [&](std::size_t w) {
    return words_[w] & mask.words_[w];
  });
}

BitVector& BitVector::operator^=(const BitVector& other) {
  if (other.size_ != size_)
    throw std::invalid_argument("BitVector::operator^=: size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  if (other.size_ != size_)
    throw std::invalid_argument("BitVector::hamming_distance: size mismatch");
  std::size_t n = 0;
  for (std::size_t w = 0; w < words_.size(); ++w)
    n += static_cast<std::size_t>(std::popcount(words_[w] ^ other.words_[w]));
  return n;
}

std::uint64_t BitVector::to_uint64() const {
  if (words_.empty()) return 0;
  if (size_ >= 64) return words_[0];
  return words_[0] & ((std::uint64_t{1} << size_) - 1);
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  std::vector<std::uint8_t> out((size_ + 7) / 8, 0);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(words_[i / 8] >> (8 * (i % 8)));
  return out;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

void BitVector::normalize_tail() {
  const std::size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << rem) - 1;
}

}  // namespace qkd
