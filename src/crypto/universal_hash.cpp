#include "src/crypto/universal_hash.hpp"

#include <bit>
#include <stdexcept>

#include "src/crypto/cpu.hpp"
#include "src/crypto/gf2n.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qkd::crypto {

namespace detail {

qkd::BitVector toeplitz_hash_portable(const qkd::BitVector& key,
                                      const qkd::BitVector& message,
                                      unsigned tag_bits) {
  // Row i of the Toeplitz matrix is key[i .. i+msg_len); equivalently the
  // tag is the windowed inner product of key and message. Each row ANDs
  // the message words against the key shifted right by i, built a word at
  // a time; key bits past the row's window meet the message's zero tail.
  const auto m = message.words();
  const auto k = key.words();
  qkd::BitVector tag(tag_bits);
  for (unsigned i = 0; i < tag_bits; ++i) {
    const std::size_t base = i >> 6;
    const unsigned shift = i & 63;
    std::uint64_t acc = 0;
    if (shift == 0) {
      for (std::size_t w = 0; w < m.size(); ++w) acc ^= m[w] & k[base + w];
    } else {
      // Every word but the last has a successor in the key; the last
      // word's successor may lie past the key's end, and then only bits the
      // message's zero tail masks would come from it.
      const std::size_t last = m.size() - 1;
      for (std::size_t w = 0; w < last; ++w)
        acc ^= m[w] & ((k[base + w] >> shift) |
                       (k[base + w + 1] << (64 - shift)));
      std::uint64_t tail = k[base + last] >> shift;
      if (base + last + 1 < k.size())
        tail |= k[base + last + 1] << (64 - shift);
      acc ^= m[last] & tail;
    }
    if (std::popcount(acc) & 1) tag.set(i, true);
  }
  return tag;
}

#if defined(__x86_64__)
namespace {

std::uint64_t reverse_bits(std::uint64_t x) {
  x = __builtin_bswap64(x);
  x = (x >> 4 & 0x0F0F0F0F0F0F0F0Full) | (x & 0x0F0F0F0F0F0F0F0Full) << 4;
  x = (x >> 2 & 0x3333333333333333ull) | (x & 0x3333333333333333ull) << 2;
  return (x >> 1 & 0x5555555555555555ull) | (x & 0x5555555555555555ull) << 1;
}

// Sums reverse_bits(word) times the key words in `keys`' low and high lanes
// into `lo` and `hi`.
__attribute__((target("pclmul"))) inline void middle_product_step(
    std::uint64_t word, __m128i keys, __m128i& lo, __m128i& hi) {
  const __m128i r =
      _mm_cvtsi64_si128(static_cast<long long>(reverse_bits(word)));
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(r, keys, 0x00));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(r, keys, 0x10));
}

std::uint64_t low_lane(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}
std::uint64_t high_lane(__m128i v) {
  return low_lane(_mm_unpackhi_epi64(v, v));
}

}  // namespace

__attribute__((target("pclmul"))) qkd::BitVector toeplitz_hash_pclmul(
    const qkd::BitVector& key, const qkd::BitVector& message,
    unsigned tag_bits) {
  // Rows 64c .. 64c+63 read the key from word c on. Take message word w
  // bit-reversed (bit 63 - s holds m[64w + s]) and the 128 key bits from
  // word c + w: bit 63 + t of their carry-less product collects
  // m[64w + s] & key[64(c + w) + t + s] over every s, row t's share of word
  // w. So each chunk is bits 63..126 of the sum of those products, kept as
  // one accumulator per key word. As in the portable kernel, the last
  // word's successor may lie past the key's end and reads as zero.
  const auto m = message.words();
  const auto k = key.words();
  const std::size_t last = m.size() - 1;
  qkd::BitVector tag(tag_bits);
  const auto t = tag.words();
  for (std::size_t c = 0; c < t.size(); ++c) {
    __m128i lo = _mm_setzero_si128();  // products with key word c + w
    __m128i hi = _mm_setzero_si128();  // products with key word c + w + 1
    for (std::size_t w = 0; w < last; ++w)
      middle_product_step(
          m[w], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&k[c + w])),
          lo, hi);
    const std::size_t next = c + last + 1;
    const std::uint64_t successor = next < k.size() ? k[next] : 0;
    middle_product_step(m[last],
                        _mm_set_epi64x(static_cast<long long>(successor),
                                       static_cast<long long>(k[c + last])),
                        lo, hi);
    t[c] = (low_lane(lo) >> 63 | high_lane(lo) << 1) ^ low_lane(hi) << 1;
  }
  tag.normalize_tail();  // rows past tag_bits in the last chunk
  return tag;
}
#endif

}  // namespace detail

qkd::BitVector toeplitz_hash(const qkd::BitVector& key,
                             const qkd::BitVector& message,
                             unsigned tag_bits) {
  if (message.empty()) return qkd::BitVector(tag_bits);
  if (key.size() < tag_bits + message.size() - 1)
    throw std::invalid_argument("toeplitz_hash: key too short");
#if defined(__x86_64__)
  if (detail::cpu_has_pclmul())
    return detail::toeplitz_hash_pclmul(key, message, tag_bits);
#endif
  return detail::toeplitz_hash_portable(key, message, tag_bits);
}

std::uint64_t poly_hash64(std::uint64_t key,
                          std::span<const std::uint8_t> message) {
  static const Gf2Field field(64);
  const qkd::BitVector k = qkd::BitVector::from_uint64(key, 64);
  qkd::BitVector acc(64);
  // Horner evaluation over 8-byte chunks (zero-padded tail). The message
  // length is mixed in as a final chunk so that messages differing only in
  // trailing zero bytes hash differently.
  std::size_t off = 0;
  auto absorb = [&](std::uint64_t chunk) {
    acc = field.multiply(acc, k);
    acc ^= qkd::BitVector::from_uint64(chunk, 64);
  };
  while (off < message.size()) {
    std::uint64_t chunk = 0;
    const std::size_t n = std::min<std::size_t>(8, message.size() - off);
    for (std::size_t i = 0; i < n; ++i)
      chunk |= static_cast<std::uint64_t>(message[off + i]) << (8 * i);
    absorb(chunk);
    off += n;
  }
  absorb(static_cast<std::uint64_t>(message.size()));
  return acc.to_uint64();
}

WegmanCarterAuthenticator::WegmanCarterAuthenticator(
    Config config, const qkd::BitVector& initial_secret)
    : config_(config) {
  const std::size_t key_bits = config_.tag_bits + config_.max_message_bits - 1;
  if (initial_secret.size() < key_bits)
    throw std::invalid_argument(
        "WegmanCarterAuthenticator: initial secret shorter than Toeplitz key");
  toeplitz_key_ = initial_secret.slice(0, key_bits);
  // Whatever remains of the prepositioned secret seeds the pad pool.
  pad_pool_ = initial_secret.slice(key_bits, initial_secret.size() - key_bits);
}

void WegmanCarterAuthenticator::replenish(const qkd::BitVector& bits) {
  pad_pool_.append(bits);
}

std::size_t WegmanCarterAuthenticator::pad_bits_available() const {
  return pad_pool_.size() - pad_cursor_;
}

qkd::BitVector WegmanCarterAuthenticator::next_pad() {
  qkd::BitVector pad = pad_pool_.slice(pad_cursor_, config_.tag_bits);
  pad_cursor_ += config_.tag_bits;
  consumed_ += config_.tag_bits;
  return pad;
}

std::optional<qkd::BitVector> WegmanCarterAuthenticator::tag(
    const Bytes& message) {
  if (pad_bits_available() < config_.tag_bits) return std::nullopt;
  if (message.size() * 8 > config_.max_message_bits)
    throw std::invalid_argument("WegmanCarterAuthenticator: message too long");
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector t = toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  t ^= next_pad();
  return t;
}

bool WegmanCarterAuthenticator::verify(const Bytes& message,
                                       const qkd::BitVector& tag) {
  const auto expected = this->tag(message);
  return expected.has_value() && *expected == tag;
}

std::optional<qkd::BitVector> WegmanCarterAuthenticator::tag_at(
    const Bytes& message, std::size_t slot) {
  const std::size_t offset = slot * config_.tag_bits;
  if (offset + config_.tag_bits > pad_pool_.size()) return std::nullopt;
  if (message.size() * 8 > config_.max_message_bits)
    throw std::invalid_argument("WegmanCarterAuthenticator: message too long");
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector t = toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  t ^= pad_pool_.slice(offset, config_.tag_bits);
  if (offset + config_.tag_bits > pad_cursor_) {
    consumed_ += offset + config_.tag_bits - pad_cursor_;
    pad_cursor_ = offset + config_.tag_bits;
  }
  return t;
}

bool WegmanCarterAuthenticator::verify_at(const Bytes& message,
                                          const qkd::BitVector& tag,
                                          std::size_t slot) {
  const std::size_t offset = slot * config_.tag_bits;
  if (offset + config_.tag_bits > pad_pool_.size()) return false;
  if (message.size() * 8 > config_.max_message_bits) return false;
  const qkd::BitVector msg_bits = qkd::BitVector::from_bytes(message);
  qkd::BitVector expected =
      toeplitz_hash(toeplitz_key_, msg_bits, config_.tag_bits);
  expected ^= pad_pool_.slice(offset, config_.tag_bits);
  if (!(expected == tag)) return false;
  // Only a SUCCESSFUL verification consumes the slot's pad.
  if (offset + config_.tag_bits > pad_cursor_) {
    consumed_ += offset + config_.tag_bits - pad_cursor_;
    pad_cursor_ = offset + config_.tag_bits;
  }
  return true;
}

}  // namespace qkd::crypto
