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
//    "LFSR/Toeplitz + OTP" construction QKD systems deploy, and is what the
//    WegmanCarterAuthenticator below consumes key bits for).
//  * PolyHash — polynomial evaluation over GF(2^64); constant key size,
//    eps = len/2^64; used for comparison in the authentication bench.
#pragma once

#include <cstdint>
#include <optional>

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

/// Polynomial-evaluation hash over GF(2^64): interprets the message as
/// coefficients and evaluates at the 64-bit key point k, i.e.
/// H(m) = m_1*k^t + ... + m_t*k (Horner), an eps-almost-XOR-universal family.
std::uint64_t poly_hash64(std::uint64_t key, std::span<const std::uint8_t> message);

/// A Wegman–Carter authenticator bound to a pool of one-time secret bits.
///
/// Construction: tag = toeplitz_hash(K_toeplitz, message) XOR pad, where
/// K_toeplitz is fixed per association (consumed once, at construction time,
/// from the shared secret) and `pad` is `tag_bits` fresh of one-time key per
/// message. The pad is what makes tags single-use-secure; running out of pad
/// bits is the key-exhaustion DoS discussed in Section 2 of the paper.
class WegmanCarterAuthenticator {
 public:
  struct Config {
    unsigned tag_bits = 64;
    /// Maximum message length in bits the Toeplitz key supports.
    unsigned max_message_bits = 1 << 16;
  };

  /// Draws the Toeplitz key from `initial_secret` (throws std::invalid_argument
  /// if it is too short: needs tag_bits + max_message_bits - 1 bits).
  WegmanCarterAuthenticator(Config config, const qkd::BitVector& initial_secret);

  /// Bits of one-time pad required per tag.
  unsigned pad_bits_per_tag() const { return config_.tag_bits; }

  /// Appends fresh secret bits (e.g. distilled QKD output) to the pad pool.
  void replenish(const qkd::BitVector& bits);

  /// Remaining pad bits (== number of tags still issuable * tag_bits).
  std::size_t pad_bits_available() const;

  /// Tags a message, consuming pad bits; returns nullopt if the pad pool is
  /// exhausted (the caller decides whether that is an alarm or a stall).
  std::optional<qkd::BitVector> tag(const Bytes& message);

  /// Verifies and consumes pad bits in lockstep with the peer's tag().
  /// Returns false on mismatch OR exhaustion.
  bool verify(const Bytes& message, const qkd::BitVector& tag);

  /// Slot-addressed variants: pad bits for slot `s` live at a fixed pool
  /// offset (s * tag_bits), so tag and verification stay paired by the
  /// message's sequence number rather than by call count. This is what
  /// lets a lossy wire retransmit an identical envelope: the receiver
  /// verifies the retransmission against the same pad, and a FAILED verify
  /// consumes nothing (a forger cannot burn the pool by spraying frames).
  std::optional<qkd::BitVector> tag_at(const Bytes& message, std::size_t slot);
  bool verify_at(const Bytes& message, const qkd::BitVector& tag,
                 std::size_t slot);

  /// Total pad bits consumed so far (for the key-consumption accounting
  /// benches).
  std::size_t pad_bits_consumed() const { return consumed_; }

 private:
  qkd::BitVector next_pad();

  Config config_;
  qkd::BitVector toeplitz_key_;
  qkd::BitVector pad_pool_;
  std::size_t pad_cursor_ = 0;
  std::size_t consumed_ = 0;
};

}  // namespace qkd::crypto
