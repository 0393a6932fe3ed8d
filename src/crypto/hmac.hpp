// HMAC-SHA1 (RFC 2104) and the IKE-style PRF+ key expansion built on it.
//
// HmacSha1Key is the one implementation: it hashes the key's ipad and opad
// blocks once, so a caller that MACs many messages under one key (an ESP
// SA, PRF+'s iterations) pays for the message blocks and the outer digest
// only. hmac_sha1 keys one and MACs once.
#pragma once

#include <span>

#include "src/common/bytes.hpp"
#include "src/crypto/sha1.hpp"

namespace qkd::crypto {

/// An HMAC-SHA1 key: the SHA-1 states after the ipad and the opad block.
class HmacSha1Key {
 public:
  explicit HmacSha1Key(std::span<const std::uint8_t> key);

  /// HMAC-SHA1 of `data` under this key.
  Sha1::Digest mac(std::span<const std::uint8_t> data) const;

 private:
  Sha1 inner_;
  Sha1 outer_;
};

/// HMAC-SHA1 of `data` under `key`.
Sha1::Digest hmac_sha1(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> data);

/// RFC-2409-style iterated keying material expansion:
///   K1 = prf(key, seed | 0x01), K2 = prf(key, K1 | seed | 0x02), ...
/// concatenated and truncated to `out_len` bytes. IKE uses this to stretch
/// SKEYID (+ QKD bits, in our extension) into per-SA keys.
Bytes prf_plus(std::span<const std::uint8_t> key,
               std::span<const std::uint8_t> seed, std::size_t out_len);

/// Constant-time comparison (authenticator checks must not leak timing).
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b);

}  // namespace qkd::crypto
