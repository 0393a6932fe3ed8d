// Universal hashing for QKD authentication (Wegman & Carter).
//
// BB84's original paper sketched authentication via universal families of
// hash functions [Wegman & Carter 1981]: Alice and Bob share a small secret
// key that selects a hash function; any forger who does not know the key has
// probability <= 2^-tag_bits of producing a valid tag, *regardless of
// computational power* — exactly the adversary model of Section 6.
//
// Two families are provided:
//  * ToeplitzHash — an (m x n) Toeplitz matrix over GF(2), described by
//    m+n-1 key bits. XOR-universal; with a fresh one-time pad applied to the
//    tag the Toeplitz key itself is reusable (this is the standard
//    "LFSR/Toeplitz + OTP" construction QKD systems deploy).
//  * PolyHash — polynomial evaluation over GF(2^64); a 64-bit key for a
//    message of any length, eps = (L + 1)/2^64 for L 64-bit blocks.
//
// WegmanCarterAuthenticator composes them: the polynomial hash shrinks a
// long message (a batch's whole dialogue) to 64 bits, and a short Toeplitz
// matrix hashes that to the tag, so the keys stay ~160 bits however long
// the message.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"

namespace qkd::crypto {

/// Hash of an arbitrary-length message to `tag_bits` bits using a Toeplitz
/// matrix whose diagonals are `key` (key.size() must be tag_bits+msg_bits-1).
/// Runs the PCLMULQDQ kernel where the CPU has it, the portable one
/// elsewhere; both give the same tag.
qkd::BitVector toeplitz_hash(const qkd::BitVector& key,
                             const qkd::BitVector& message, unsigned tag_bits);

namespace detail {
/// The two kernels toeplitz_hash chooses between, for the tests that hold
/// them equal. Both expect a non-empty message and a key of at least
/// tag_bits + message.size() - 1 bits. The portable one ANDs each row's
/// shifted key window into the message a word at a time.
qkd::BitVector toeplitz_hash_portable(const qkd::BitVector& key,
                                      const qkd::BitVector& message,
                                      unsigned tag_bits);
#if defined(__x86_64__)
/// Each 64-row chunk of the tag as a carry-less middle product; needs
/// cpu_has_pclmul().
qkd::BitVector toeplitz_hash_pclmul(const qkd::BitVector& key,
                                    const qkd::BitVector& message,
                                    unsigned tag_bits);
#endif
}  // namespace detail

/// Polynomial-evaluation hash over GF(2^64) mod x^64 + x^4 + x^3 + x + 1:
/// the message as 64-bit little-endian blocks m_1 .. m_t (the last one
/// zero-padded), then its length in bytes as a final block, evaluated by
/// Horner at the key point k: H(m) = m_1 k^t + ... + m_t k + len. Two
/// messages of at most L blocks collide for at most L + 1 of the 2^64 keys.
/// Runs the PCLMULQDQ kernel where the CPU has it, the portable one
/// elsewhere; both give the same value.
std::uint64_t poly_hash64(std::uint64_t key,
                          std::span<const std::uint8_t> message);

namespace detail {
/// The two kernels poly_hash64 chooses between, for the tests that hold
/// them equal. The portable one multiplies a bit at a time.
std::uint64_t poly_hash64_portable(std::uint64_t key,
                                   std::span<const std::uint8_t> message);
#if defined(__x86_64__)
/// Eight Horner steps per reduction, one PCLMULQDQ per block; needs
/// cpu_has_pclmul().
std::uint64_t poly_hash64_pclmul(std::uint64_t key,
                                 std::span<const std::uint8_t> message);
#endif
}  // namespace detail

/// A Wegman-Carter authenticator bound to a pool of one-time secret bits.
///
/// Construction: tag = Toeplitz(K2, poly_hash64(K1, message)) XOR pad. K1
/// (64 bits) and the tag_bits x 64 Toeplitz matrix K2 (tag_bits + 63 bits)
/// are fixed per association, taken once from the shared secret; `pad` is
/// tag_bits of one-time key per tag. Composing the two hashes keeps the
/// key short whatever the message length: a forger who sees one tag of a
/// message of at most L blocks passes another with probability at most
/// 2^-tag_bits + (L + 1) 2^-64. The pad is what makes the keys reusable;
/// running out of pad bits is the key-exhaustion DoS of Section 2.
class WegmanCarterAuthenticator {
 public:
  struct Config {
    unsigned tag_bits = 32;  // 1 to 64
  };

  /// Bits of secret the two hash keys take.
  static std::size_t key_bits(const Config& config) {
    return 64 + config.tag_bits + 63;
  }

  /// Draws the hash keys from `initial_secret`; the rest of it is the first
  /// pad. Throws std::invalid_argument if it is shorter than key_bits() or
  /// the tag is not 1 to 64 bits.
  WegmanCarterAuthenticator(Config config, const qkd::BitVector& initial_secret);

  /// Appends fresh secret bits (e.g. distilled QKD output) to the pad pool.
  void replenish(const qkd::BitVector& bits);

  /// Pad bits not yet spent.
  std::size_t pad_bits_available() const;

  /// The pad of slot `s` is pool bits
  /// [s * tag_bits, (s + 1) * tag_bits), so both ends pair a tag with its
  /// pad by a number they share (the batch's frame id) rather than by call
  /// count. holds(s) says whether that pad is in the pool: not if the pool
  /// does not reach it yet (the exhaustion DoS of Section 2), or if it lies
  /// before a slot reserved since. reserve(s) spends the pool up to the end
  /// of slot s (slots skipped on the way are spent too), and is false if it
  /// does not hold s; tag_at then tags with slot s's pad without spending
  /// anything, nullopt if it does not hold it. A verifier computes the tag
  /// the same way and compares.
  bool holds(std::size_t slot) const;
  bool reserve(std::size_t slot);
  std::optional<qkd::BitVector> tag_at(std::span<const std::uint8_t> message,
                                       std::size_t slot) const;

  /// Total pad bits spent so far (for the key-consumption accounting).
  std::size_t pad_bits_consumed() const { return consumed_; }

 private:
  Config config_;
  std::uint64_t poly_key_ = 0;
  qkd::BitVector toeplitz_key_;
  qkd::BitVector pad_pool_;  // pool bits from dropped_ on
  std::size_t dropped_ = 0;  // spent pad no longer held
  std::size_t consumed_ = 0;
};

}  // namespace qkd::crypto
