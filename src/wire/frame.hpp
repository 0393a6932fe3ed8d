// The message-framing layer under every protocol conversation (Fig. 1's
// public channel made concrete): everything Alice, Bob and the KMS say to
// each other travels as a length-prefixed, versioned, typed frame.
//
//   magic(u16) | version(u8) | type(u8) | payload_len(u32) | payload
//
// Version 2 frames insert a 16-byte trace-context extension between the
// base header and the payload (trace_id u64 | parent_span u64), so a
// request traced on one endpoint resumes the SAME trace on the other —
// the wire-crossing half of src/obs. Version 1 frames are what they
// always were, bit for bit; encoders only emit version 2 when a caller
// hands them a valid TraceContext, and decoders accept both strictly.
//
// The 8-byte header is the whole story: `type` selects a packet codec
// (src/wire/packets.hpp for the distillation dialogue, src/wire/etsi.hpp
// for the KMS request/response API), `payload_len` lets a byte-stream
// transport (TCP) reassemble frames without understanding their contents,
// and decoding is STRICT — bad magic, unknown version or type, a length
// that disagrees with the buffer, trailing bytes, or an oversized claim all
// come back as a typed WireError, never as UB or a silent best-effort
// parse. Eve owns this channel (she may forge, truncate, and splice), so
// the decoder treats every input as hers.
#pragma once

#include <cstdint>
#include <span>

#include "src/common/bytes.hpp"
#include "src/obs/trace.hpp"

namespace qkd::wire {

// ---- Packet vocabulary -----------------------------------------------------

/// Every message the stack puts on a wire. 0x0x: the distillation dialogue
/// (the per-step messages of the Fig. 9 pipeline — the packet-type enum of
/// BBN's engineering tradition); 0x2x: the ETSI-014-flavored KMS API.
enum class PacketType : std::uint8_t {
  // Distillation dialogue (src/wire/packets.hpp).
  kQframeFeed = 0x01,     // sim bootstrap: Bob's detections for the batch
  kSiftAnnounce = 0x02,   // Bob -> Alice: detected slots + bases
  kSiftDecision = 0x03,   // Alice -> Bob: which detections survive
  kSampleReveal = 0x04,   // either direction: sacrificed sample bits
  kParityRequest = 0x05,  // Bob -> Alice: a batch of parity queries
  kParityResponse = 0x06, // Alice -> Bob: their parity bits, packed
  kEcSummary = 0x07,      // Bob -> Alice: corrections + convergence
  kVerifyHash = 0x08,     // either direction: hash of the corrected string
  kPaParams = 0x09,       // Alice -> Bob: multiplier / poly / addend / m
  kAbort = 0x0A,          // either direction: batch rejected, with reason
  kKeyDigest = 0x0B,      // either direction: digest of the distilled key
  // KMS API (src/wire/etsi.hpp).
  kKmsRegister = 0x20,
  kKmsRegisterReply = 0x21,
  kKmsGetKey = 0x22,
  kKmsGrant = 0x23,
  kKmsGetKeyWithId = 0x24,
  kKmsKeyWithIdReply = 0x25,
  kKmsStatus = 0x26,
  kKmsStatusReply = 0x27,
  kKmsReject = 0x28,
  kKmsBye = 0x29,
  // Relay transport (src/network/key_transport.cpp): the per-hop header of
  // a trusted-relay frame. Its encoded size is what the mesh charges each
  // hop pad for (MeshSimulation::kFrameOverheadBits is measured from it).
  kRelayHeader = 0x30,
};

/// True iff `raw` names a PacketType the codec knows.
bool packet_type_known(std::uint8_t raw);

const char* packet_type_name(PacketType type);

// ---- Errors ----------------------------------------------------------------

/// Typed decode failures. Strict decoding: anything not bit-exactly a valid
/// frame/payload maps to one of these; decoders never throw across the wire
/// boundary and never return partial values.
enum class WireError : std::uint8_t {
  kNone = 0,
  kShortFrame,        // buffer ends before the header or declared payload
  kBadMagic,          // first two bytes are not kMagic
  kBadVersion,        // version byte != kVersion
  kUnknownType,       // type byte outside the PacketType vocabulary
  kOversizedFrame,    // declared payload length above kMaxPayloadBytes
  kTrailingBytes,     // buffer continues past the declared frame end
  kMalformedPayload,  // frame ok, but the typed payload did not parse
  kClosed,            // transport peer closed mid-frame
};

const char* wire_error_name(WireError error);

/// A decode outcome: `value` is meaningful iff ok().
template <typename T>
struct Result {
  T value{};
  WireError error = WireError::kNone;

  bool ok() const { return error == WireError::kNone; }

  static Result failure(WireError e) { return Result{{}, e}; }
  static Result success(T v) { return Result{std::move(v), WireError::kNone}; }
};

// ---- Frame codec -----------------------------------------------------------

inline constexpr std::uint16_t kMagic = 0x514B;  // "QK"
inline constexpr std::uint8_t kWireVersion = 1;
/// Version-2 frames carry the 16-byte trace-context extension after the
/// base header. Emitted only when the sender has a live trace; a peer
/// that has never heard of tracing still speaks version 1 unchanged.
inline constexpr std::uint8_t kWireVersionTraced = 2;
inline constexpr std::size_t kHeaderBytes = 8;
/// trace_id(u64) | parent_span(u64), present iff version == 2.
inline constexpr std::size_t kTraceExtensionBytes = 16;
/// Upper bound on a payload a peer may declare; bounds memory a hostile
/// header can make us reserve (a Qframe's sift announce at 2^20 slots is
/// ~130 KiB, so 16 MiB is generous for every legitimate packet).
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

/// One decoded frame: the typed payload bytes, not yet parsed. `trace`
/// is invalid (trace_id == 0) for version-1 frames.
struct Frame {
  PacketType type = PacketType::kAbort;
  Bytes payload;
  obs::TraceContext trace;
};

/// Encodes header + payload. The only way bytes enter a Transport.
Bytes encode_frame(PacketType type, const Bytes& payload);

/// Encodes with trace propagation: a valid `trace` produces a version-2
/// frame carrying it; an invalid one degrades to the plain version-1
/// encoding (byte-identical to encode_frame above).
Bytes encode_frame(PacketType type, const Bytes& payload,
                   obs::TraceContext trace);

/// Strictly decodes ONE frame occupying the whole buffer (trailing bytes
/// are an error — the transports deliver exact frames).
Result<Frame> decode_frame(std::span<const std::uint8_t> buffer);

/// Stream-assembly helper: given a buffer prefix, how many total bytes the
/// frame at its head occupies. Needs at least kHeaderBytes; validates
/// magic/version/type/size so a corrupt header fails before any blocking
/// read for its payload.
Result<std::size_t> frame_total_length(std::span<const std::uint8_t> prefix);

// ---- Relay-hop overhead ----------------------------------------------------

/// Wegman-Carter tag bytes on a kRelayHeader hop frame (32-bit tags, per
/// the engine's auth config).
inline constexpr std::size_t kRelayTagBytes = 4;

/// Measured per-hop overhead of a trusted-relay frame: the wire header
/// plus the hop's authentication tag, in bits. This is the quantity the
/// mesh charges every hop pad for (MeshSimulation::kFrameOverheadBits) —
/// derived from the frame layout rather than asserted as a constant.
constexpr std::size_t relay_frame_overhead_bits() {
  return 8 * (kHeaderBytes + kRelayTagBytes);
}

}  // namespace qkd::wire
