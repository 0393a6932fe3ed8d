#include "src/qkd/rle.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace qkd::proto {
namespace {

/// The first position in [pos, n) whose bit differs from `current`, or n.
std::size_t run_end(std::span<const std::uint64_t> words, std::size_t pos,
                    bool current, std::size_t n) {
  const std::uint64_t flip = current ? ~std::uint64_t{0} : 0;
  std::size_t w = pos / 64;
  // Differences at or after `pos` within its word.
  std::uint64_t diff = (words[w] ^ flip) & (~std::uint64_t{0} << (pos % 64));
  while (diff == 0) {
    if (++w == words.size()) return n;
    diff = words[w] ^ flip;
  }
  const std::size_t end =
      w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
  return end < n ? end : n;  // flipped padding past n reads as a change
}

/// Sets bits [begin, end) a word at a time.
void set_run(std::span<std::uint64_t> words, std::size_t begin,
             std::size_t end) {
  while (begin < end) {
    const std::size_t offset = begin % 64;
    const std::size_t len = std::min<std::size_t>(64 - offset, end - begin);
    const std::uint64_t ones =
        len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    words[begin / 64] |= ones << offset;
    begin += len;
  }
}

}  // namespace

Bytes rle_encode(const qkd::BitVector& bits) {
  Bytes out;
  put_varint(out, bits.size());
  // Runs alternate starting with a (possibly empty) 0-run.
  bool current = false;
  for (std::size_t pos = 0; pos < bits.size(); current = !current) {
    const std::size_t end = run_end(bits.words(), pos, current, bits.size());
    put_varint(out, end - pos);
    pos = end;
  }
  return out;
}

qkd::BitVector rle_decode(const Bytes& encoded) {
  ByteReader reader(encoded);
  std::uint64_t n;
  try {
    n = reader.varint();
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("rle_decode: truncated header");
  }
  qkd::BitVector out(n);
  std::size_t pos = 0;
  bool current = false;
  while (pos < n) {
    std::uint64_t run;
    try {
      run = reader.varint();
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("rle_decode: truncated run");
    }
    if (run > n - pos)
      throw std::invalid_argument("rle_decode: run overflows bitmap");
    if (current) set_run(out.words(), pos, pos + run);
    pos += run;
    current = !current;
  }
  if (!reader.done()) throw std::invalid_argument("rle_decode: trailing bytes");
  return out;
}

}  // namespace qkd::proto
