// Typed packets for the distillation dialogue — one struct per step of the
// Fig. 9 pipeline conversation, each with a strict binary codec. These are
// the messages that actually cross the public channel: the in-memory
// tier-1 path and the two-process socket path encode and decode the SAME
// bytes, so wire accounting is a measurement, not bookkeeping.
//
// Codec conventions (shared with src/wire/etsi.hpp):
//  * integers big-endian via put_u*/ByteReader; counts as LEB128 varints;
//  * dense bit strings as varint bit-count + packed bytes (LSB first);
//  * sorted slot lists (a Qframe's clicks at ~0.3% density) as varint
//    slot-count + varint click-count + delta-encoded slots (QframeFeed,
//    SiftAnnounce) — the bytes of a sparse detection bitmap;
//  * decode is strict: short payloads, impossible counts, nonzero padding
//    bits and trailing bytes all return WireError::kMalformedPayload.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"
#include "src/wire/frame.hpp"

namespace qkd::wire {

// ---- Shared field codecs ---------------------------------------------------

/// varint bit-count + packed bytes, LSB-first within each byte; padding
/// bits in the last byte must decode as zero.
void put_bits_dense(Bytes& out, const qkd::BitVector& bits);
qkd::BitVector get_bits_dense(ByteReader& reader);  // throws on malformed

// ---- Packets ---------------------------------------------------------------

/// Simulation bootstrap (two-process runs only): the side simulating the
/// optics feeds the peer Bob's half of the Qframe — his clicks, and his
/// basis and bit at each. This models the QUANTUM channel, not the
/// classical wire, and is excluded from control-traffic accounting.
struct QframeFeed {
  static constexpr PacketType kType = PacketType::kQframeFeed;
  std::uint64_t frame_id = 0;
  std::uint64_t slots = 0;            // frame size
  std::vector<std::uint32_t> clicks;  // sorted, each < slots
  qkd::BitVector bases;               // per click
  qkd::BitVector bits;                // per click

  Bytes encode() const;
  static Result<QframeFeed> decode(const Bytes& payload);
  bool operator==(const QframeFeed&) const = default;
};

/// Bob -> Alice: the slots that produced a usable click, in increasing
/// order, plus Bob's basis for each click. The clicks go out as the sorted
/// slot list above (slot-count, click-count, gaps): the gaps are the runs
/// of 'no detection' that the Appendix asks sift messages to run-length
/// code.
struct SiftAnnounce {
  static constexpr PacketType kType = PacketType::kSiftAnnounce;
  std::uint64_t frame_id = 0;
  std::uint64_t slots = 0;            // frame size
  std::vector<std::uint32_t> clicks;  // sorted, each < slots
  qkd::BitVector bob_bases;           // per click

  Bytes encode() const;
  static Result<SiftAnnounce> decode(const Bytes& payload);
  bool operator==(const SiftAnnounce&) const = default;
};

/// Alice -> Bob: which clicks survive the basis comparison.
struct SiftDecision {
  static constexpr PacketType kType = PacketType::kSiftDecision;
  std::uint64_t frame_id = 0;
  qkd::BitVector keep;  // per click, in SiftAnnounce::clicks order

  Bytes encode() const;
  static Result<SiftDecision> decode(const Bytes& payload);
  bool operator==(const SiftDecision&) const = default;
};

/// The sender's values at the agreed sample positions (positions derive
/// from the shared DRBG and are never transmitted). Each side reveals its
/// own bits; both then compute the identical sampled error rate.
struct SampleReveal {
  static constexpr PacketType kType = PacketType::kSampleReveal;
  std::uint64_t frame_id = 0;
  qkd::BitVector bits;  // per sampled position

  Bytes encode() const;
  static Result<SampleReveal> decode(const Bytes& payload);
  bool operator==(const SampleReveal&) const = default;
};

/// Bob -> Alice: a batch of parity questions, answered together (the
/// compact subset descriptions of src/qkd/ec.hpp — an LFSR or permutation
/// seed plus a range, never a bit list). Each query goes out as kind (u8),
/// seed (u32), begin and end (varints).
struct ParityRequest {
  static constexpr PacketType kType = PacketType::kParityRequest;
  /// Queries per request; a larger batch goes out as several requests.
  static constexpr std::size_t kMaxQueries = 1u << 16;

  struct Query {
    std::uint8_t kind = 0;  // ParityQuery::Kind
    std::uint32_t seed = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool operator==(const Query&) const = default;
  };
  std::vector<Query> queries;  // 1..kMaxQueries

  Bytes encode() const;
  static Result<ParityRequest> decode(const Bytes& payload);
  bool operator==(const ParityRequest&) const = default;
};

/// Alice -> Bob: the answers to a ParityRequest, one packed parity bit per
/// query in request order.
struct ParityResponse {
  static constexpr PacketType kType = PacketType::kParityResponse;
  qkd::BitVector parities;  // 1..ParityRequest::kMaxQueries bits

  Bytes encode() const;
  static Result<ParityResponse> decode(const Bytes& payload);
  bool operator==(const ParityResponse&) const = default;
};

/// Bob -> Alice: error correction finished; how it went. Alice needs the
/// correction count for her entropy estimate (her oracle already knows the
/// disclosure count).
struct EcSummary {
  static constexpr PacketType kType = PacketType::kEcSummary;
  std::uint32_t corrections = 0;
  bool converged = false;

  Bytes encode() const;
  static Result<EcSummary> decode(const Bytes& payload);
  bool operator==(const EcSummary&) const = default;
};

/// Hash of the corrected string (both directions exchange one; IKE "has no
/// mechanisms for noticing" key disagreement, so the QKD stack must).
struct VerifyHash {
  static constexpr PacketType kType = PacketType::kVerifyHash;
  std::uint64_t frame_id = 0;
  Bytes digest;  // SHA-1, 20 bytes

  Bytes encode() const;
  static Result<VerifyHash> decode(const Bytes& payload);
  bool operator==(const VerifyHash&) const = default;
};

/// Alice -> Bob, per PA chunk: "the number of bits m of the shortened
/// result, the (sparse) primitive polynomial of the Galois field, a
/// multiplier (n bits long), and an m-bit polynomial to add" (Sec. 5).
struct PaParamsPacket {
  static constexpr PacketType kType = PacketType::kPaParams;
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  std::vector<std::uint32_t> modulus_exponents;  // sparse poly, highest first
  qkd::BitVector multiplier;                     // n bits
  qkd::BitVector addend;                         // m bits

  Bytes encode() const;
  static Result<PaParamsPacket> decode(const Bytes& payload);
  bool operator==(const PaParamsPacket&) const = default;
};

/// Either side walks away from the batch; the peer must discard its half.
struct AbortPacket {
  static constexpr PacketType kType = PacketType::kAbort;
  std::uint8_t reason = 0;  // proto::AbortReason

  Bytes encode() const;
  static Result<AbortPacket> decode(const Bytes& payload);
  bool operator==(const AbortPacket&) const = default;
};

/// Digest of the batch's distilled key — the end-to-end "byte-identical on
/// both sides" check of the two-process integration runs.
struct KeyDigest {
  static constexpr PacketType kType = PacketType::kKeyDigest;
  std::uint64_t frame_id = 0;
  std::uint64_t key_bits = 0;
  Bytes digest;  // SHA-1, 20 bytes

  Bytes encode() const;
  static Result<KeyDigest> decode(const Bytes& payload);
  bool operator==(const KeyDigest&) const = default;
};

/// Each direction's Wegman-Carter tag on every distinct frame it sent in
/// the batch (src/qkd/authentication.hpp); it closes the dialogue. Its pad
/// is the batch's own, so it names no batch.
struct TranscriptTag {
  static constexpr PacketType kType = PacketType::kTranscriptTag;
  Bytes tag;  // 1 to 8 bytes

  Bytes encode() const;
  static Result<TranscriptTag> decode(const Bytes& payload);
  bool operator==(const TranscriptTag&) const = default;
};

// ---- Whole-packet codec ----------------------------------------------------

using DistillationPacket =
    std::variant<QframeFeed, SiftAnnounce, SiftDecision, SampleReveal,
                 ParityRequest, ParityResponse, EcSummary, VerifyHash,
                 PaParamsPacket, AbortPacket, KeyDigest, TranscriptTag>;

/// Encodes payload + frame header in one step.
template <typename Packet>
Bytes to_frame(const Packet& packet) {
  return encode_frame(Packet::kType, packet.encode());
}

/// The same as a checked frame (encode_checked_frame): how the dialogue
/// sends every packet.
template <typename Packet>
Bytes to_checked_frame(const Packet& packet) {
  return encode_checked_frame(Packet::kType, packet.encode());
}

/// Decodes a frame's payload into the typed packet its header names.
/// kMalformedPayload for non-dialogue frame types (KMS frames go through
/// src/wire/etsi.hpp).
Result<DistillationPacket> decode_packet(const Frame& frame);

/// Convenience: full strict path, bytes -> frame -> typed packet.
Result<DistillationPacket> decode_packet_bytes(
    std::span<const std::uint8_t> buffer);

}  // namespace qkd::wire
