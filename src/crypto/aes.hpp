// AES-128/192/256 (FIPS 197), implemented from scratch.
//
// The paper's rapid-reseed extension derives AES keys from QKD bits and
// rolls them about once a minute (Section 7); ESP security associations in
// qkd_ipsec use this implementation in CBC mode, keyed once per SA. S-boxes
// are generated at compile time from the GF(2^8) inverse + affine map rather
// than transcribed, eliminating table-typo risk.
//
// The constructor expands the key once, into the encryption round keys and
// the equivalent inverse cipher's decryption keys (FIPS 197 5.3.5). Blocks
// run on AES-NI (`aesenc` / `aesdec`) when CPUID reports it, and otherwise
// on the byte-wise portable kernel, which is also the oracle the AES-NI
// kernel is tested against. No option selects the path.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "src/common/bytes.hpp"

namespace qkd::crypto {

namespace detail {
/// An expanded AES key. `enc` holds round keys 0 .. rounds; `dec` holds the
/// equivalent inverse cipher's: enc's in reverse order, with InvMixColumns
/// (what `aesimc` computes) applied to all but the first and last.
struct AesSchedule {
  unsigned rounds = 0;
  // Maximum schedule: AES-256 = 15 round keys of 16 bytes.
  alignas(16) std::array<std::uint8_t, 16 * 15> enc{};
  alignas(16) std::array<std::uint8_t, 16 * 15> dec{};
};

/// The two AES block kernels Aes chooses between, for the tests that hold
/// them equal: each maps one 16-byte block `in` to `out`. The portable one
/// runs byte-wise rounds over `enc` in both directions.
using AesKernel = void (*)(const AesSchedule& ks, const std::uint8_t* in,
                           std::uint8_t* out);
void aes_encrypt_portable(const AesSchedule& ks, const std::uint8_t* in,
                          std::uint8_t* out);
void aes_decrypt_portable(const AesSchedule& ks, const std::uint8_t* in,
                          std::uint8_t* out);
#if defined(__x86_64__)
/// The AES-NI rounds, one instruction each; needs cpu_has_aes().
void aes_encrypt_aes_ni(const AesSchedule& ks, const std::uint8_t* in,
                        std::uint8_t* out);
void aes_decrypt_aes_ni(const AesSchedule& ks, const std::uint8_t* in,
                        std::uint8_t* out);
#endif
}  // namespace detail

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;

  /// Key must be 16, 24 or 32 bytes; throws std::invalid_argument otherwise.
  explicit Aes(std::span<const std::uint8_t> key);

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  Block encrypt_block(const Block& in) const;
  Block decrypt_block(const Block& in) const;

  const detail::AesSchedule& schedule() const { return schedule_; }

 private:
  detail::AesSchedule schedule_;
};

/// CBC mode over whole blocks (callers pad; ESP applies RFC 2406 padding).
/// Throws std::invalid_argument if data is not a multiple of 16 bytes.
Bytes aes_cbc_encrypt(const Aes& aes, const Aes::Block& iv,
                      std::span<const std::uint8_t> plaintext);
Bytes aes_cbc_decrypt(const Aes& aes, const Aes::Block& iv,
                      std::span<const std::uint8_t> ciphertext);

/// CTR keystream XOR (encrypt == decrypt); any data length.
Bytes aes_ctr_crypt(const Aes& aes, const Aes::Block& counter_block,
                    std::span<const std::uint8_t> data);

namespace detail {
/// CBC over a named block kernel. aes_cbc_encrypt and aes_cbc_decrypt
/// pass the kernel CPUID picks; the tests and bench_ike name either.
Bytes aes_cbc_encrypt(AesKernel encrypt, const AesSchedule& ks,
                      const Aes::Block& iv,
                      std::span<const std::uint8_t> plaintext);
Bytes aes_cbc_decrypt(AesKernel decrypt, const AesSchedule& ks,
                      const Aes::Block& iv,
                      std::span<const std::uint8_t> ciphertext);
}  // namespace detail

}  // namespace qkd::crypto
