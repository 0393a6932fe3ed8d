#include "src/crypto/drbg.hpp"

#include <algorithm>

namespace qkd::crypto {

Drbg::Drbg(std::span<const std::uint8_t> seed) { state_ = Sha1::hash(seed); }

Drbg::Drbg(std::uint64_t seed) {
  Bytes b;
  put_u64(b, seed);
  state_ = Sha1::hash(b);
}

void Drbg::fill(std::span<std::uint8_t> out) {
  // Each output block hashes state || counter (big-endian), built on the
  // stack; digests are copied straight into `out`.
  std::array<std::uint8_t, Sha1::kDigestSize + 8> block;
  std::copy(state_.begin(), state_.end(), block.begin());
  for (std::size_t filled = 0; filled < out.size();) {
    const std::uint64_t counter = counter_++;
    for (int i = 0; i < 8; ++i)
      block[Sha1::kDigestSize + i] =
          static_cast<std::uint8_t>(counter >> (56 - 8 * i));
    const auto digest = Sha1::hash(block);
    const std::size_t take = std::min(digest.size(), out.size() - filled);
    std::copy_n(digest.begin(), take, out.begin() + filled);
    filled += take;
  }
  // Ratchet the state forward so earlier output cannot be recovered from a
  // captured state (backtracking resistance).
  std::array<std::uint8_t, Sha1::kDigestSize + 1> ratchet;
  std::copy(state_.begin(), state_.end(), ratchet.begin());
  ratchet.back() = 0xff;
  state_ = Sha1::hash(ratchet);
}

Bytes Drbg::generate(std::size_t n_bytes) {
  Bytes out(n_bytes);
  fill(out);
  return out;
}

qkd::BitVector Drbg::generate_bits(std::size_t n_bits) {
  const Bytes bytes = generate((n_bits + 7) / 8);
  qkd::BitVector bits = qkd::BitVector::from_bytes(bytes);
  bits.resize(n_bits);
  return bits;
}

std::uint32_t Drbg::next_u32() {
  std::array<std::uint8_t, 4> b;
  fill(b);
  return static_cast<std::uint32_t>(b[0]) << 24 |
         static_cast<std::uint32_t>(b[1]) << 16 |
         static_cast<std::uint32_t>(b[2]) << 8 | b[3];
}

std::uint64_t Drbg::next_u64() {
  return static_cast<std::uint64_t>(next_u32()) << 32 | next_u32();
}

void Drbg::reseed(std::span<const std::uint8_t> entropy) {
  Bytes mix(state_.begin(), state_.end());
  mix.insert(mix.end(), entropy.begin(), entropy.end());
  state_ = Sha1::hash(mix);
}

}  // namespace qkd::crypto
