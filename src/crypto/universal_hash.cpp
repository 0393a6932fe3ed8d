#include "src/crypto/universal_hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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

namespace {

__attribute__((target("pclmul"))) inline __m128i clmul64(std::uint64_t a,
                                                        std::uint64_t b) {
  return _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(a)),
                              _mm_cvtsi64_si128(static_cast<long long>(b)),
                              0x00);
}

/// A 128-bit carry-less product reduced modulo x^64 + x^4 + x^3 + x + 1:
/// the high word times x^64 is the high word times x^4 + x^3 + x + 1,
/// whose (at most four) bits past 63 fold back in the same way.
std::uint64_t reduce64(__m128i product) {
  const std::uint64_t hi = high_lane(product);
  const std::uint64_t over = hi >> 63 ^ hi >> 61 ^ hi >> 60;
  return low_lane(product) ^ hi ^ hi << 1 ^ hi << 3 ^ hi << 4 ^ over ^
         over << 1 ^ over << 3 ^ over << 4;
}

__attribute__((target("pclmul"))) std::uint64_t gf64_multiply_pclmul(
    std::uint64_t a, std::uint64_t b) {
  return reduce64(clmul64(a, b));
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);  // x86-64 is little-endian
  return word;
}

}  // namespace
#endif

namespace {

/// Block `i` of the message: bytes 8i .. 8i+7, little-endian, the last
/// one zero-padded.
std::uint64_t message_block(std::span<const std::uint8_t> message,
                            std::size_t i) {
  std::uint64_t block = 0;
  const std::size_t n = std::min<std::size_t>(8, message.size() - 8 * i);
  for (std::size_t b = 0; b < n; ++b)
    block |= static_cast<std::uint64_t>(message[8 * i + b]) << (8 * b);
  return block;
}

std::size_t block_count(std::span<const std::uint8_t> message) {
  return (message.size() + 7) / 8;
}

/// a b in GF(2^64) mod x^64 + x^4 + x^3 + x + 1, Horner over b's bits,
/// highest first: double (reducing), then add a where the bit is set.
std::uint64_t gf64_multiply_portable(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  for (int i = 63; i >= 0; --i) {
    r = r << 1 ^ (0x1Bu & (0 - (r >> 63)));
    r ^= a & (0 - (b >> i & 1));
  }
  return r;
}

}  // namespace

std::uint64_t poly_hash64_portable(std::uint64_t key,
                                   std::span<const std::uint8_t> message) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < block_count(message); ++i)
    acc = gf64_multiply_portable(acc, key) ^ message_block(message, i);
  return gf64_multiply_portable(acc, key) ^ message.size();
}

#if defined(__x86_64__)
__attribute__((target("pclmul"))) std::uint64_t poly_hash64_pclmul(
    std::uint64_t key, std::span<const std::uint8_t> message) {
  // Eight Horner steps at once: acc k^8 + m0 k^7 + ... + m6 k + m7, the
  // products summed unreduced and reduced once. Only the acc product waits
  // on the group before, so the chain is one multiply and one reduction
  // per 64 bytes.
  constexpr std::size_t kGroup = 8;
  std::uint64_t powers[kGroup + 1];  // powers[j] = key^j
  powers[1] = key;
  for (std::size_t j = 2; j <= kGroup; ++j)
    powers[j] = gf64_multiply_pclmul(powers[j - 1], key);
  const std::uint8_t* p = message.data();
  const std::size_t full = message.size() / 8;
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + kGroup <= full; i += kGroup, p += 8 * kGroup) {
    __m128i sum = clmul64(acc, powers[kGroup]);
    for (std::size_t j = 0; j + 1 < kGroup; ++j)
      sum = _mm_xor_si128(sum,
                          clmul64(load_le64(p + 8 * j), powers[kGroup - 1 - j]));
    acc = reduce64(sum) ^ load_le64(p + 8 * (kGroup - 1));
  }
  for (; i < block_count(message); ++i)
    acc = gf64_multiply_pclmul(acc, key) ^ message_block(message, i);
  return gf64_multiply_pclmul(acc, key) ^ message.size();
}
#endif

}  // namespace detail

std::uint64_t poly_hash64(std::uint64_t key,
                          std::span<const std::uint8_t> message) {
#if defined(__x86_64__)
  if (detail::cpu_has_pclmul()) return detail::poly_hash64_pclmul(key, message);
#endif
  return detail::poly_hash64_portable(key, message);
}

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

WegmanCarterAuthenticator::WegmanCarterAuthenticator(
    Config config, const qkd::BitVector& initial_secret)
    : config_(config) {
  if (config_.tag_bits == 0 || config_.tag_bits > 64)
    throw std::invalid_argument(
        "WegmanCarterAuthenticator: tags are 1 to 64 bits");
  const std::size_t keys = key_bits(config_);
  if (initial_secret.size() < keys)
    throw std::invalid_argument(
        "WegmanCarterAuthenticator: initial secret shorter than the hash keys");
  poly_key_ = initial_secret.slice(0, 64).to_uint64();
  toeplitz_key_ = initial_secret.slice(64, keys - 64);
  // Whatever remains of the prepositioned secret seeds the pad pool.
  pad_pool_ = initial_secret.slice(keys, initial_secret.size() - keys);
}

void WegmanCarterAuthenticator::replenish(const qkd::BitVector& bits) {
  pad_pool_.append(bits);
}

std::size_t WegmanCarterAuthenticator::pad_bits_available() const {
  return dropped_ + pad_pool_.size() - consumed_;
}

bool WegmanCarterAuthenticator::holds(std::size_t slot) const {
  return slot * config_.tag_bits >= dropped_ &&
         (slot + 1) * config_.tag_bits <= dropped_ + pad_pool_.size();
}

bool WegmanCarterAuthenticator::reserve(std::size_t slot) {
  if (!holds(slot)) return false;
  const std::size_t end = (slot + 1) * config_.tag_bits;
  if (end <= consumed_) return true;
  consumed_ = end;
  // The pad before this slot is spent. It is dropped once it outnumbers
  // what the pool still holds, so a long-lived association keeps a pool
  // the size of its runway.
  const std::size_t spent = slot * config_.tag_bits - dropped_;
  if (spent > pad_pool_.size() - spent) {
    pad_pool_ = pad_pool_.slice(spent, pad_pool_.size() - spent);
    dropped_ += spent;
  }
  return true;
}

std::optional<qkd::BitVector> WegmanCarterAuthenticator::tag_at(
    std::span<const std::uint8_t> message, std::size_t slot) const {
  if (!holds(slot)) return std::nullopt;
  const qkd::BitVector inner =
      qkd::BitVector::from_uint64(poly_hash64(poly_key_, message), 64);
  qkd::BitVector t = toeplitz_hash(toeplitz_key_, inner, config_.tag_bits);
  t ^= pad_pool_.slice(slot * config_.tag_bits - dropped_, config_.tag_bits);
  return t;
}

}  // namespace qkd::crypto
