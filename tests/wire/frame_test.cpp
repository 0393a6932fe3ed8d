#include "src/wire/frame.hpp"

#include <gtest/gtest.h>

namespace qkd::wire {
namespace {

TEST(Frame, RoundTripsTypeAndPayload) {
  const Bytes payload{0xDE, 0xAD, 0xBE, 0xEF};
  const Bytes framed = encode_frame(PacketType::kSiftAnnounce, payload);
  ASSERT_EQ(framed.size(), kHeaderBytes + payload.size());

  const auto decoded = decode_frame(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value.type, PacketType::kSiftAnnounce);
  EXPECT_EQ(decoded.value.payload, payload);
}

TEST(Frame, RoundTripsEmptyPayload) {
  const Bytes framed = encode_frame(PacketType::kKmsBye, {});
  const auto decoded = decode_frame(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value.type, PacketType::kKmsBye);
  EXPECT_TRUE(decoded.value.payload.empty());
}

TEST(Frame, HeaderLayoutIsMagicVersionTypeLength) {
  const Bytes framed = encode_frame(PacketType::kAbort, Bytes{0x42});
  EXPECT_EQ(framed[0], 0x51);  // 'Q'
  EXPECT_EQ(framed[1], 0x4B);  // 'K'
  EXPECT_EQ(framed[2], kWireVersion);
  EXPECT_EQ(framed[3], static_cast<std::uint8_t>(PacketType::kAbort));
  // Big-endian u32 payload length.
  EXPECT_EQ(framed[4], 0u);
  EXPECT_EQ(framed[5], 0u);
  EXPECT_EQ(framed[6], 0u);
  EXPECT_EQ(framed[7], 1u);
}

TEST(Frame, ShortBufferIsTypedError) {
  const Bytes framed = encode_frame(PacketType::kAbort, Bytes{1, 2, 3});
  for (std::size_t len = 0; len < framed.size(); ++len) {
    const auto decoded =
        decode_frame(std::span<const std::uint8_t>(framed.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_EQ(decoded.error, WireError::kShortFrame) << "prefix length " << len;
  }
}

TEST(Frame, BadMagicRejected) {
  Bytes framed = encode_frame(PacketType::kAbort, {});
  framed[0] ^= 0xFF;
  EXPECT_EQ(decode_frame(framed).error, WireError::kBadMagic);
}

TEST(Frame, UnknownVersionRejected) {
  Bytes framed = encode_frame(PacketType::kAbort, {});
  framed[2] = kWireVersionTraced + 1;  // above every version we speak
  EXPECT_EQ(decode_frame(framed).error, WireError::kBadVersion);
}

TEST(Frame, PreTraceContextFramesStillDecode) {
  // A hand-assembled version-1 frame exactly as a pre-trace peer emits it:
  // the upgrade must not orphan old senders.
  const Bytes old_frame{0x51, 0x4B,  // magic "QK"
                        0x01,        // version 1 (no trace extension)
                        0x0A,        // kAbort
                        0x00, 0x00, 0x00, 0x02,  // payload length 2
                        0xAB, 0xCD};
  const auto decoded = decode_frame(old_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value.type, PacketType::kAbort);
  EXPECT_EQ(decoded.value.payload, (Bytes{0xAB, 0xCD}));
  EXPECT_FALSE(decoded.value.trace.valid());

  // And the untraced encoder still produces those bytes bit for bit.
  EXPECT_EQ(encode_frame(PacketType::kAbort, Bytes{0xAB, 0xCD}), old_frame);
}

TEST(Frame, TraceContextRoundTripsInVersion2Frames) {
  const obs::TraceContext trace{0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL};
  const Bytes payload{0x42};
  const Bytes framed = encode_frame(PacketType::kKmsGetKey, payload, trace);
  ASSERT_EQ(framed.size(), kHeaderBytes + kTraceExtensionBytes + 1);
  EXPECT_EQ(framed[2], kWireVersionTraced);

  const auto total = frame_total_length(framed);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value, framed.size());

  const auto decoded = decode_frame(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value.type, PacketType::kKmsGetKey);
  EXPECT_EQ(decoded.value.payload, payload);
  EXPECT_EQ(decoded.value.trace.trace_id, trace.trace_id);
  EXPECT_EQ(decoded.value.trace.parent_span, trace.parent_span);
}

TEST(Frame, InvalidTraceContextDegradesToVersion1) {
  // trace_id == 0 means "no trace": the traced overload must emit bytes
  // identical to the plain encoder, not a version-2 frame full of zeros.
  const Bytes payload{1, 2, 3};
  EXPECT_EQ(encode_frame(PacketType::kAbort, payload, obs::TraceContext{}),
            encode_frame(PacketType::kAbort, payload));
}

TEST(Frame, TruncatedTraceExtensionIsShortFrame) {
  const obs::TraceContext trace{7, 9};
  const Bytes framed = encode_frame(PacketType::kKmsGetKey, Bytes{5}, trace);
  for (std::size_t len = kHeaderBytes; len < framed.size(); ++len) {
    const auto decoded =
        decode_frame(std::span<const std::uint8_t>(framed.data(), len));
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_EQ(decoded.error, WireError::kShortFrame) << "prefix length " << len;
  }
}

TEST(Frame, Version2TrailingBytesStillRejected) {
  Bytes framed =
      encode_frame(PacketType::kKmsGetKey, Bytes{5}, obs::TraceContext{3, 4});
  framed.push_back(0x00);
  EXPECT_EQ(decode_frame(framed).error, WireError::kTrailingBytes);
}

TEST(Frame, UnknownTypeRejected) {
  Bytes framed = encode_frame(PacketType::kAbort, {});
  framed[3] = 0x7F;  // outside the vocabulary
  EXPECT_FALSE(packet_type_known(0x7F));
  EXPECT_EQ(decode_frame(framed).error, WireError::kUnknownType);
}

TEST(Frame, TrailingBytesRejected) {
  Bytes framed = encode_frame(PacketType::kAbort, Bytes{9});
  framed.push_back(0x00);
  EXPECT_EQ(decode_frame(framed).error, WireError::kTrailingBytes);
}

TEST(Frame, OversizedClaimRejectedBeforeAllocation) {
  Bytes framed = encode_frame(PacketType::kAbort, {});
  // Claim a payload over kMaxPayloadBytes; the buffer itself stays tiny.
  framed[4] = 0xFF;
  framed[5] = 0xFF;
  framed[6] = 0xFF;
  framed[7] = 0xFF;
  EXPECT_EQ(decode_frame(framed).error, WireError::kOversizedFrame);
}

TEST(Frame, TotalLengthValidatesHeaderPrefix) {
  const Bytes framed = encode_frame(PacketType::kEcSummary, Bytes(100));
  const auto length = frame_total_length(framed);
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(length.value, framed.size());

  Bytes corrupt = framed;
  corrupt[0] ^= 1;
  EXPECT_EQ(frame_total_length(corrupt).error, WireError::kBadMagic);
  EXPECT_EQ(frame_total_length(std::span<const std::uint8_t>(framed.data(), 4))
                .error,
            WireError::kShortFrame);
}

TEST(Frame, RelayOverheadIsMeasuredFromTheLayout) {
  // 8-byte header + 4-byte Wegman-Carter hop tag = 96 bits: the value the
  // mesh charges each hop pad for, derived rather than asserted.
  EXPECT_EQ(relay_frame_overhead_bits(), 96u);
  EXPECT_EQ(relay_frame_overhead_bits(),
            8 * (kHeaderBytes + kRelayTagBytes));
}

TEST(Frame, EveryNamedTypeIsKnownAndNamed) {
  for (const PacketType type :
       {PacketType::kQframeFeed, PacketType::kSiftAnnounce,
        PacketType::kSiftDecision, PacketType::kSampleReveal,
        PacketType::kParityRequest, PacketType::kParityResponse,
        PacketType::kEcSummary, PacketType::kVerifyHash, PacketType::kPaParams,
        PacketType::kAbort, PacketType::kKeyDigest,
        PacketType::kTranscriptTag, PacketType::kKmsRegister,
        PacketType::kKmsRegisterReply, PacketType::kKmsGetKey,
        PacketType::kKmsGrant, PacketType::kKmsGetKeyWithId,
        PacketType::kKmsKeyWithIdReply, PacketType::kKmsStatus,
        PacketType::kKmsStatusReply, PacketType::kKmsReject,
        PacketType::kKmsBye, PacketType::kRelayHeader}) {
    EXPECT_TRUE(packet_type_known(static_cast<std::uint8_t>(type)));
    EXPECT_STRNE(packet_type_name(type), "?");
  }
}

TEST(Frame, CheckedFrameRoundTripsAndEndsInItsCrc) {
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes framed = encode_checked_frame(PacketType::kSiftDecision, payload);
  ASSERT_EQ(framed.size(), kHeaderBytes + payload.size() + kChecksumBytes);
  // The header counts the checksum as payload, so the frame stays a plain
  // frame to anything that does not check it.
  const auto plain = decode_frame(framed);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value.payload.size(), payload.size() + kChecksumBytes);
  const auto checked = decode_checked_frame(framed);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked.value.type, PacketType::kSiftDecision);
  EXPECT_EQ(checked.value.payload, payload);
  EXPECT_TRUE(decode_checked_frame(
                  encode_checked_frame(PacketType::kAbort, Bytes{}))
                  .ok());
}

TEST(Frame, CheckedFrameWithAnyByteDamagedIsBadChecksum) {
  const Bytes framed =
      encode_checked_frame(PacketType::kParityResponse, Bytes{9, 8, 7, 6});
  // The checksum covers the header too, so it catches a damaged header
  // before the header is parsed.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    Bytes damaged = framed;
    damaged[i] ^= 0x04;
    EXPECT_FALSE(checksum_ok(damaged)) << i;
    EXPECT_EQ(decode_checked_frame(damaged).error, WireError::kBadChecksum)
        << i;
  }
  EXPECT_TRUE(checksum_ok(framed));
  EXPECT_EQ(decode_checksummed_frame(framed).value.payload,
            (Bytes{9, 8, 7, 6}));
  // A plain frame with no room for a checksum is not a checked one.
  EXPECT_EQ(decode_checked_frame(encode_frame(PacketType::kAbort, Bytes{1}))
                .error,
            WireError::kBadChecksum);
  EXPECT_STREQ(wire_error_name(WireError::kBadChecksum), "bad-checksum");
}

}  // namespace
}  // namespace qkd::wire
