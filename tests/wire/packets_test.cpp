#include "src/wire/packets.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

namespace qkd::wire {
namespace {

/// Frame -> decode_packet must hand back exactly the packet that went in.
template <typename Packet>
Packet round_trip(const Packet& packet) {
  const Bytes framed = to_frame(packet);
  const auto frame = decode_frame(framed);
  EXPECT_TRUE(frame.ok());
  const auto decoded = decode_packet(frame.value);
  EXPECT_TRUE(decoded.ok()) << packet_type_name(Packet::kType);
  EXPECT_TRUE(std::holds_alternative<Packet>(decoded.value));
  return std::get<Packet>(decoded.value);
}

TEST(Packets, QframeFeedRoundTrips) {
  QKD_SEEDED_RNG(rng, 31);
  QframeFeed packet;
  packet.frame_id = 7;
  packet.slots = 512;
  for (std::uint32_t i = 0; i < packet.slots; ++i)
    if (rng.next_bool(0.1)) packet.clicks.push_back(i);
  packet.bases = rng.next_bits(packet.clicks.size());
  packet.bits = rng.next_bits(packet.clicks.size());
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, SiftAnnounceRoundTripsSparseMask) {
  // ~1% detection density: the sparse codec's home turf.
  BitVector detected(4096);
  SiftAnnounce packet;
  packet.frame_id = 42;
  packet.slots = detected.size();
  for (std::uint32_t i = 0; i < detected.size(); i += 97) {
    detected.set(i, true);
    packet.clicks.push_back(i);
  }
  packet.bob_bases = BitVector(packet.clicks.size());  // one basis per click
  for (std::size_t i = 0; i < packet.bob_bases.size(); i += 2)
    packet.bob_bases.set(i, true);
  EXPECT_EQ(round_trip(packet), packet);

  // The click list goes out as the sparse field of the detection bitmap
  // (slot-count, click-count, then the first slot and each later one's gap
  // past its predecessor, minus 1), which must beat dense packing at this
  // density.
  Bytes sparse;
  put_varint(sparse, packet.slots);
  put_varint(sparse, packet.clicks.size());
  put_varint(sparse, 0);
  for (std::size_t i = 1; i < packet.clicks.size(); ++i) put_varint(sparse, 96);
  Bytes expected;
  put_varint(expected, packet.frame_id);
  expected.insert(expected.end(), sparse.begin(), sparse.end());
  put_bits_dense(expected, packet.bob_bases);
  EXPECT_EQ(packet.encode(), expected);
  Bytes dense;
  put_bits_dense(dense, detected);
  EXPECT_LT(sparse.size(), dense.size());
}

TEST(Packets, SiftAnnounceCompressesSparseFrames) {
  // Appendix: runs of "no detection" must take very little space. At the
  // paper's ~0.3 % detection over a 2^20-slot frame, each click costs a
  // varint gap (the run of empty slots before it) plus one basis bit.
  QKD_SEEDED_RNG(rng, 3);
  SiftAnnounce sparse;
  sparse.slots = 1 << 20;
  for (std::uint32_t i = 0; i < sparse.slots; ++i)
    if (rng.next_bool(0.003)) sparse.clicks.push_back(i);
  sparse.bob_bases = rng.next_bits(sparse.clicks.size());
  const std::size_t raw = (sparse.slots + 7) / 8;
  EXPECT_LT(sparse.encode().size(), raw / 10);
  EXPECT_LT(sparse.encode().size(), 3 * sparse.clicks.size() + 16);

  // A click in every other slot: one byte of gap and a basis bit each.
  SiftAnnounce dense;
  dense.slots = 1000;
  for (std::uint32_t i = 0; i < dense.slots; i += 2) dense.clicks.push_back(i);
  dense.bob_bases = rng.next_bits(dense.clicks.size());
  EXPECT_LT(dense.encode().size(), 2 * dense.clicks.size() + 16);
}

TEST(Packets, SiftDecisionRoundTrips) {
  SiftDecision packet;
  packet.frame_id = 3;
  packet.keep = BitVector{1, 1, 0, 1, 0, 0, 0, 1, 1};
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, SampleRevealRoundTrips) {
  QKD_SEEDED_RNG(rng, 77);
  SampleReveal packet;
  packet.frame_id = 11;
  packet.bits = rng.next_bits(101);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, ParityDialogueRoundTrips) {
  ParityRequest request;
  request.queries = {{1, 0xDEADBEEF, 128, 4096},
                     {0, 7, 0, 0},
                     {1, 0xFFFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF}};
  EXPECT_EQ(round_trip(request), request);

  ParityResponse response;
  response.parities = BitVector{1};
  EXPECT_EQ(round_trip(response), response);
  response.parities = BitVector{0};
  EXPECT_EQ(round_trip(response), response);
  response.parities = BitVector::from_string("1011001110001");
  EXPECT_EQ(round_trip(response), response);
}

TEST(Packets, FullParityBatchRoundTrips) {
  ParityRequest request;
  request.queries.resize(ParityRequest::kMaxQueries);
  for (std::size_t i = 0; i < request.queries.size(); ++i)
    request.queries[i] = {static_cast<std::uint8_t>(i & 1),
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(2 * i)};
  EXPECT_EQ(round_trip(request), request);
  ParityResponse response;
  response.parities = BitVector(ParityRequest::kMaxQueries);
  response.parities.set(12345, true);
  EXPECT_EQ(round_trip(response), response);
}

TEST(Packets, MalformedParityBatchesAreRejected) {
  ParityRequest two;
  two.queries = {{0, 1, 2, 30}, {1, 4, 5, 60}};
  const Bytes good = two.encode();

  // Truncated anywhere inside the batch.
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_EQ(ParityRequest::decode(Bytes(good.begin(), good.begin() + cut)).error,
              WireError::kMalformedPayload)
        << cut;

  // The count says three, the payload carries two.
  Bytes miscounted = good;
  miscounted[0] = 3;
  EXPECT_EQ(ParityRequest::decode(miscounted).error,
            WireError::kMalformedPayload);
  // ... or one, leaving the second query as trailing bytes.
  miscounted[0] = 1;
  EXPECT_EQ(ParityRequest::decode(miscounted).error,
            WireError::kTrailingBytes);

  // Zero queries, and one more than the limit.
  Bytes empty;
  put_varint(empty, 0);
  EXPECT_EQ(ParityRequest::decode(empty).error, WireError::kMalformedPayload);
  Bytes over;
  put_varint(over, ParityRequest::kMaxQueries + 1);
  EXPECT_EQ(ParityRequest::decode(over).error, WireError::kMalformedPayload);
  // A hostile count is refused before the queries it claims are read.
  Bytes huge;
  put_varint(huge, std::uint64_t{1} << 40);
  EXPECT_EQ(ParityRequest::decode(huge).error, WireError::kMalformedPayload);

  // An inverted range in the second query, and a range past 32 bits.
  ParityRequest inverted = two;
  inverted.queries[1] = {1, 4, 61, 60};
  EXPECT_EQ(ParityRequest::decode(inverted.encode()).error,
            WireError::kMalformedPayload);
  Bytes wide;
  put_varint(wide, 1);
  put_u8(wide, 0);
  put_u32(wide, 9);
  put_varint(wide, 0);
  put_varint(wide, std::uint64_t{1} << 32);
  EXPECT_EQ(ParityRequest::decode(wide).error, WireError::kMalformedPayload);

  // Responses: zero bits, more bits than a request may ask, and a set
  // padding bit in the packed byte.
  Bytes no_bits;
  put_varint(no_bits, 0);
  EXPECT_EQ(ParityResponse::decode(no_bits).error,
            WireError::kMalformedPayload);
  ParityResponse too_many;
  too_many.parities = BitVector(ParityRequest::kMaxQueries + 1);
  EXPECT_EQ(ParityResponse::decode(too_many.encode()).error,
            WireError::kMalformedPayload);
  Bytes padded;
  put_varint(padded, 3);
  put_u8(padded, 0x0D);  // bits 0b101 plus padding bit 3
  EXPECT_EQ(ParityResponse::decode(padded).error,
            WireError::kMalformedPayload);
  Bytes truncated_bits;
  put_varint(truncated_bits, 9);
  put_u8(truncated_bits, 0x01);  // nine bits need two bytes
  EXPECT_EQ(ParityResponse::decode(truncated_bits).error,
            WireError::kMalformedPayload);
}

TEST(Packets, EcSummaryRoundTrips) {
  EcSummary packet;
  packet.corrections = 19;
  packet.converged = true;
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, VerifyHashRoundTrips) {
  VerifyHash packet;
  packet.frame_id = 5;
  packet.digest.assign(20, 0xAB);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, PaParamsRoundTrips) {
  QKD_SEEDED_RNG(rng, 5);
  PaParamsPacket packet;
  packet.n = 4096;
  packet.m = 3200;
  packet.modulus_exponents = {4096, 27, 0};
  packet.multiplier = rng.next_bits(4096);
  packet.addend = rng.next_bits(3200);
  EXPECT_EQ(round_trip(packet), packet);
}

TEST(Packets, PaParamsRejectsNonCanonicalModulus) {
  // The modulus must list strictly descending exponents from n down to 0: a
  // repeated term names a different field, a missing constant term leaves x
  // dividing the modulus, and a term above n is no field of width n.
  QKD_SEEDED_RNG(rng, 6);
  PaParamsPacket packet;
  packet.n = 32;
  packet.m = 16;
  packet.multiplier = rng.next_bits(32);
  packet.addend = rng.next_bits(16);
  const std::vector<std::vector<std::uint32_t>> bad = {
      {32, 7, 7, 3, 2, 0}, {32, 7, 3, 2}, {32, 40, 0}, {32, 2, 7, 0},
      {7, 3, 2, 0},        {32},          {}};
  for (const auto& exponents : bad) {
    packet.modulus_exponents = exponents;
    EXPECT_EQ(PaParamsPacket::decode(packet.encode()).error,
              WireError::kMalformedPayload)
        << ::testing::PrintToString(exponents);
  }
  packet.modulus_exponents = {32, 7, 3, 2, 0};
  EXPECT_TRUE(PaParamsPacket::decode(packet.encode()).ok());
}

TEST(Packets, AbortAndKeyDigestRoundTrip) {
  AbortPacket abort_packet;
  abort_packet.reason = 4;
  EXPECT_EQ(round_trip(abort_packet), abort_packet);

  KeyDigest digest;
  digest.frame_id = 9;
  digest.key_bits = 2912;
  digest.digest.assign(20, 0x5C);
  EXPECT_EQ(round_trip(digest), digest);
}

TEST(Packets, TranscriptTagRoundTripsAndBoundsItsTag) {
  TranscriptTag tag;
  tag.tag = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(round_trip(tag), tag);
  // A tag of no bytes, or of more than 64 bits, is not one.
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{9}}) {
    tag.tag.assign(bytes, 0x11);
    EXPECT_EQ(TranscriptTag::decode(tag.encode()).error,
              WireError::kMalformedPayload)
        << bytes;
  }
}

TEST(Packets, EmptyBitVectorsSurvive) {
  SiftDecision packet;  // zero detections kept
  packet.frame_id = 1;
  EXPECT_EQ(round_trip(packet), packet);

  SampleReveal reveal;  // zero-bit sample
  reveal.frame_id = 2;
  EXPECT_EQ(round_trip(reveal), reveal);
}

TEST(Packets, TruncatedPayloadIsMalformed) {
  QKD_SEEDED_RNG(rng, 3);
  SiftAnnounce packet;
  packet.frame_id = 1;
  packet.slots = 256;
  for (std::uint32_t i = 0; i < packet.slots; ++i)
    if (rng.next_bool()) packet.clicks.push_back(i);
  packet.bob_bases = rng.next_bits(packet.clicks.size());
  Bytes payload = packet.encode();
  payload.pop_back();
  EXPECT_EQ(SiftAnnounce::decode(payload).error, WireError::kMalformedPayload);
}

TEST(Packets, TrailingPayloadBytesAreRejected) {
  EcSummary packet;
  packet.corrections = 2;
  Bytes payload = packet.encode();
  payload.push_back(0);
  EXPECT_EQ(EcSummary::decode(payload).error, WireError::kTrailingBytes);
}

TEST(Packets, SemanticallyInvalidFieldsAreMalformed) {
  // Structurally parseable, semantically impossible: a parity question
  // over an inverted range, an unknown subset kind.
  ParityRequest inverted;
  inverted.queries = {{0, 0, 10, 3}};
  EXPECT_EQ(ParityRequest::decode(inverted.encode()).error,
            WireError::kMalformedPayload);

  ParityRequest unknown_kind;
  unknown_kind.queries = {{9, 0, 0, 0}};
  EXPECT_EQ(ParityRequest::decode(unknown_kind.encode()).error,
            WireError::kMalformedPayload);

  // One basis bit per detection, enforced on decode.
  SiftAnnounce lopsided;
  lopsided.slots = 3;
  lopsided.clicks = {0, 2};
  lopsided.bob_bases = BitVector{1};  // two detections, one basis
  EXPECT_EQ(SiftAnnounce::decode(lopsided.encode()).error,
            WireError::kMalformedPayload);
}

/// A sparse slot field written by hand: `n` slots, the gap count, then
/// the gaps (first absolute, then distance past the previous slot minus 1).
Bytes sparse_field(std::uint64_t n, std::initializer_list<std::uint64_t> gaps) {
  Bytes out;
  put_varint(out, n);
  put_varint(out, gaps.size());
  for (std::uint64_t gap : gaps) put_varint(out, gap);
  return out;
}

/// A SiftAnnounce payload (frame 0) around a hand-written sparse field.
Bytes announce_payload(const Bytes& sparse, std::size_t clicks) {
  Bytes out;
  put_varint(out, 0);
  out.insert(out.end(), sparse.begin(), sparse.end());
  put_bits_dense(out, BitVector(clicks));
  return out;
}

/// A QframeFeed payload (frame 0) around a hand-written sparse field.
Bytes feed_payload(const Bytes& sparse, std::size_t clicks) {
  Bytes out;
  put_varint(out, 0);
  out.insert(out.end(), sparse.begin(), sparse.end());
  put_bits_dense(out, BitVector(clicks));
  put_bits_dense(out, BitVector(clicks));
  return out;
}

TEST(Packets, SparseGapThatWrapsThePositionIsMalformed) {
  // Gaps 5 then 2^64 - 3 wrap a 64-bit position back to slot 3: an
  // out-of-order mask with a second, non-canonical encoding.
  const Bytes wrapping = sparse_field(100, {5, ~std::uint64_t{0} - 2});
  EXPECT_EQ(SiftAnnounce::decode(announce_payload(wrapping, 2)).error,
            WireError::kMalformedPayload);
  EXPECT_EQ(QframeFeed::decode(feed_payload(wrapping, 2)).error,
            WireError::kMalformedPayload);
  // The same wrap in the first, absolute position.
  const Bytes huge_first = sparse_field(100, {~std::uint64_t{0}});
  EXPECT_EQ(SiftAnnounce::decode(announce_payload(huge_first, 1)).error,
            WireError::kMalformedPayload);
  EXPECT_EQ(QframeFeed::decode(feed_payload(huge_first, 1)).error,
            WireError::kMalformedPayload);
}

TEST(Packets, SparseGapMayReachTheLastSlotButNotPastIt) {
  // n = 100: slot 98 then gap 0 lands on slot 99, the last one; gap 1
  // would land on slot 100.
  const Bytes last = sparse_field(100, {98, 0});
  const auto announce = SiftAnnounce::decode(announce_payload(last, 2));
  ASSERT_TRUE(announce.ok());
  EXPECT_EQ(announce.value.encode(), announce_payload(last, 2));
  const auto feed = QframeFeed::decode(feed_payload(last, 2));
  ASSERT_TRUE(feed.ok());
  EXPECT_EQ(feed.value.clicks, (std::vector<std::uint32_t>{98, 99}));
  EXPECT_EQ(feed.value.encode(), feed_payload(last, 2));

  const Bytes past = sparse_field(100, {98, 1});
  EXPECT_EQ(SiftAnnounce::decode(announce_payload(past, 2)).error,
            WireError::kMalformedPayload);
  EXPECT_EQ(QframeFeed::decode(feed_payload(past, 2)).error,
            WireError::kMalformedPayload);
  const Bytes first_past = sparse_field(100, {100});
  EXPECT_EQ(SiftAnnounce::decode(announce_payload(first_past, 1)).error,
            WireError::kMalformedPayload);
  EXPECT_EQ(QframeFeed::decode(feed_payload(first_past, 1)).error,
            WireError::kMalformedPayload);
}

TEST(Packets, NonzeroDensePaddingIsMalformed) {
  // 9 bits occupy 2 bytes; the top 7 bits of the last byte are padding and
  // must decode as zero — a nonzero pad bit means a corrupt or non-canonical
  // encoding.
  SiftDecision packet;
  packet.frame_id = 0;
  packet.keep = BitVector(9);
  Bytes payload = packet.encode();
  payload.back() |= 0x80;
  EXPECT_EQ(SiftDecision::decode(payload).error, WireError::kMalformedPayload);
}

TEST(Packets, DecodePacketRejectsKmsFrames) {
  Frame frame;
  frame.type = PacketType::kKmsGetKey;
  EXPECT_EQ(decode_packet(frame).error, WireError::kMalformedPayload);
}

TEST(Packets, DecodePacketBytesIsTheFullStrictPath) {
  SampleReveal packet;
  packet.frame_id = 8;
  packet.bits = BitVector{1, 0, 1};
  const Bytes framed = to_frame(packet);
  const auto decoded = decode_packet_bytes(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<SampleReveal>(decoded.value), packet);

  Bytes corrupt = framed;
  corrupt[1] ^= 0xFF;
  EXPECT_EQ(decode_packet_bytes(corrupt).error, WireError::kBadMagic);
}

}  // namespace
}  // namespace qkd::wire
