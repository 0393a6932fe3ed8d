// Ongoing authentication of key-management traffic (Section 5).
//
// "Authentication must be performed on an ongoing basis for all key
// management traffic, since Eve may insert herself into the conversation
// between Alice and Bob at any stage." Both directions carry Wegman-Carter
// tags keyed from a prepositioned shared secret; "a complete authenticated
// conversation can validate a large number of new, shared secret bits from
// QKD, and a small number of these may be used to replenish the pool."
//
// One tag per direction per batch: each side tags its transcript of the
// batch (every distinct frame it sent, src/qkd/wire_link.hpp) and checks
// the peer's tag against what it received, and no key is kept unless both
// pass. Pads are addressed by the batch's frame id: open_batch(f) spends
// slot f of both directions' pools, whether the batch ends in a key or
// not, so both ends always agree on what was spent and a tag can never be
// replayed into another batch. An accepted batch repays what is owed from
// its own key (src/qkd/pipeline.hpp, take_pad_share).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"
#include "src/crypto/universal_hash.hpp"

namespace qkd::proto {

class AuthenticationService {
 public:
  struct Config {
    unsigned tag_bits = 32;
    /// Pad bits below which needs_replenishment() turns on.
    std::size_t low_water_bits = 1024;
  };

  struct Stats {
    std::size_t tagged = 0;
    std::size_t verified = 0;
    std::size_t rejected = 0;
    std::size_t stalls = 0;  // batches refused for lack of pad
  };

  /// Both endpoints construct from the same prepositioned secret; the
  /// initiator flag splits it into two direction-specific authenticators.
  /// Whatever the hash keys leave of each half is that direction's pad.
  AuthenticationService(Config config, const qkd::BitVector& shared_secret,
                        bool is_initiator);

  /// The longest transcript verify() accepts: 2^27 blocks, so a forger
  /// passes one tag with probability at most 2^-tag_bits + (2^27 + 1)
  /// 2^-64, under 1.04 x 2^-32 at the default 32 bits.
  static constexpr std::size_t kMaxTranscriptBytes = std::size_t{1} << 30;

  /// Bits of prepositioned secret the two directions' hash keys take; pad
  /// is whatever is prepositioned beyond them.
  static std::size_t required_secret_bits(const Config& config);

  /// Spends batch `frame_id`'s pad in both directions (and any slot skipped
  /// since the last batch). False, spending nothing, when a pool does not
  /// reach that far (the exhaustion DoS of Sec. 2) or the frame id is
  /// behind one already opened.
  bool open_batch(std::uint64_t frame_id);

  /// This side's tag on `transcript` under the open batch's pad.
  Bytes tag(std::span<const std::uint8_t> transcript);

  /// Whether `tag` is the peer's tag on `transcript` under the open
  /// batch's pad; false for a transcript past kMaxTranscriptBytes.
  bool verify(std::span<const std::uint8_t> transcript,
              std::span<const std::uint8_t> tag);

  /// Feeds fresh distilled bits into both directions' pad pools.
  void replenish(const qkd::BitVector& bits);

  /// Pad bits spent and not yet repaid by replenish().
  std::size_t pad_bits_owed() const {
    return pad_bits_consumed() - replenished_;
  }

  bool needs_replenishment() const;
  std::size_t pad_bits_available() const;
  std::size_t pad_bits_consumed() const;
  const Stats& stats() const { return stats_; }

 private:
  Config config_;
  bool is_initiator_;
  qkd::crypto::WegmanCarterAuthenticator send_auth_;
  qkd::crypto::WegmanCarterAuthenticator recv_auth_;
  std::optional<std::uint64_t> open_;  // the batch whose pads tag and verify
  std::size_t replenished_ = 0;
  Stats stats_;
};

}  // namespace qkd::proto
