// SHA-1 (FIPS 180-1), implemented from scratch.
//
// The paper's VPN uses SHA1 for traffic integrity ("Symmetric mechanisms
// (e.g. 3DES, SHA1)") and our IKE uses HMAC-SHA1 as the Phase-1/Phase-2 PRF
// into which QKD bits are mixed. SHA-1 is obsolete for new designs but is the
// algorithm the 2003 system ran, so we reproduce it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.hpp"

namespace qkd::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1();

  /// Streaming interface.
  void update(std::span<const std::uint8_t> data);
  Digest finish();

  /// One-shot convenience. An input of at most 55 bytes is padded into one
  /// block in place and compressed once.
  static Digest hash(std::span<const std::uint8_t> data);

 private:
  void process_block(const std::uint8_t* block);
  Digest digest() const;

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

namespace detail {
/// The two SHA-1 compression functions Sha1 chooses between, for the tests
/// that hold them equal: each folds one 64-byte block into the state `h`.
/// The portable one runs four 20-round groups over a rolling schedule.
void sha1_compress_portable(std::array<std::uint32_t, 5>& h,
                            const std::uint8_t* block);
#if defined(__x86_64__)
/// The SHA-NI rounds, four per instruction; needs cpu_has_sha_ni().
void sha1_compress_sha_ni(std::array<std::uint32_t, 5>& h,
                          const std::uint8_t* block);
#endif
}  // namespace detail

}  // namespace qkd::crypto
