#include "src/crypto/universal_hash.hpp"

#include <bit>
#include <stdexcept>

#include "src/crypto/gf2n.hpp"

namespace qkd::crypto {

qkd::BitVector toeplitz_hash(const qkd::BitVector& key,
                             const qkd::BitVector& message,
                             unsigned tag_bits) {
  if (message.empty()) return qkd::BitVector(tag_bits);
  if (key.size() < tag_bits + message.size() - 1)
    throw std::invalid_argument("toeplitz_hash: key too short");
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
