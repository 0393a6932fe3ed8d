#include "src/crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace qkd::crypto {

HmacSha1Key::HmacSha1Key(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const auto digest = Sha1::hash(key);
    std::copy(digest.begin(), digest.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }

  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Sha1::Digest HmacSha1Key::mac(std::span<const std::uint8_t> data) const {
  Sha1 inner = inner_;
  inner.update(data);
  Sha1 outer = outer_;
  outer.update(inner.finish());
  return outer.finish();
}

Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> data) {
  return HmacSha1Key(key).mac(data);
}

Bytes prf_plus(std::span<const std::uint8_t> key,
               std::span<const std::uint8_t> seed, std::size_t out_len) {
  const HmacSha1Key prf(key);
  Bytes out;
  out.reserve(out_len + Sha1::kDigestSize);
  Bytes block;  // K(i-1) | seed | counter
  std::uint8_t counter = 1;
  Sha1::Digest prev{};
  bool first = true;
  while (out.size() < out_len) {
    block.clear();
    if (!first) block.insert(block.end(), prev.begin(), prev.end());
    block.insert(block.end(), seed.begin(), seed.end());
    block.push_back(counter++);
    prev = prf.mac(block);
    out.insert(out.end(), prev.begin(), prev.end());
    first = false;
  }
  out.resize(out_len);
  return out;
}

bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace qkd::crypto
