#include "src/wire/packets.hpp"

#include <algorithm>
#include <stdexcept>

namespace qkd::wire {
namespace {

/// Guard against hostile counts before any allocation: a decoded length
/// may not imply more memory than the payload could possibly describe.
constexpr std::uint64_t kMaxDecodedBits = 8ull * kMaxPayloadBytes;

void check_bit_count(std::uint64_t bits) {
  if (bits > kMaxDecodedBits)
    throw std::out_of_range("wire: bit count exceeds frame bound");
}

/// Runs a payload parser with strict trailing-byte and exception mapping.
template <typename Packet, typename Parse>
Result<Packet> parse_payload(const Bytes& payload, const Parse& parse) {
  try {
    ByteReader reader(payload);
    Packet packet = parse(reader);
    if (!reader.done())
      return Result<Packet>::failure(WireError::kTrailingBytes);
    return Result<Packet>::success(std::move(packet));
  } catch (const std::exception&) {
    return Result<Packet>::failure(WireError::kMalformedPayload);
  }
}

/// Writes a sorted slot list: the slot-count, the click-count, then each
/// click's gap past the previous one (+1), so the first goes out absolute.
void put_gaps(Bytes& out, std::uint64_t slots,
              const std::vector<std::uint32_t>& clicks) {
  put_varint(out, slots);
  put_varint(out, clicks.size());
  // Written in place into room for the longest gap (five bytes for 32
  // bits), then trimmed: one click per announced detection.
  std::size_t at = out.size();
  out.resize(at + 5 * clicks.size());
  std::uint64_t next_free = 0;
  for (std::uint32_t slot : clicks) {
    std::uint64_t gap = slot - next_free;
    for (; gap >= 0x80; gap >>= 7)
      out[at++] = static_cast<std::uint8_t>(gap) | 0x80;
    out[at++] = static_cast<std::uint8_t>(gap);
    next_free = std::uint64_t{slot} + 1;
  }
  out.resize(at);
}

/// Reads a slot list written by put_gaps into `slots` and `clicks`. A gap
/// is checked against the room left before it is added, so no gap can
/// wrap the position back below an earlier one.
void read_gaps(ByteReader& reader, std::uint64_t& slots,
               std::vector<std::uint32_t>& clicks) {
  slots = reader.varint();
  check_bit_count(slots);
  const std::uint64_t count = reader.varint();
  if (count > slots) throw std::invalid_argument("wire: popcount > size");
  // Each gap takes at least one byte, so what is left bounds the count.
  clicks.reserve(std::min<std::uint64_t>(count, reader.remaining()));
  std::uint64_t next_free = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t gap = reader.varint();
    if (gap >= slots - next_free)
      throw std::invalid_argument("wire: set position out of range");
    clicks.push_back(static_cast<std::uint32_t>(next_free + gap));
    next_free += gap + 1;
  }
}

}  // namespace

void put_bits_dense(Bytes& out, const qkd::BitVector& bits) {
  put_varint(out, bits.size());
  const auto packed = bits.to_bytes();
  out.insert(out.end(), packed.begin(), packed.end());
}

qkd::BitVector get_bits_dense(ByteReader& reader) {
  const std::uint64_t n = reader.varint();
  check_bit_count(n);
  const std::size_t byte_count = (static_cast<std::size_t>(n) + 7) / 8;
  const Bytes packed = reader.bytes(byte_count);
  qkd::BitVector bits = qkd::BitVector::from_bytes(packed);
  // Strictness: padding bits beyond n must be zero, or two distinct wire
  // encodings would decode to the same value.
  for (std::size_t i = n; i < bits.size(); ++i)
    if (bits.get(i)) throw std::invalid_argument("wire: nonzero padding bit");
  bits.resize(static_cast<std::size_t>(n));
  return bits;
}

// ---- QframeFeed ------------------------------------------------------------

Bytes QframeFeed::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_gaps(out, slots, clicks);
  put_bits_dense(out, bases);
  put_bits_dense(out, bits);
  return out;
}

Result<QframeFeed> QframeFeed::decode(const Bytes& payload) {
  return parse_payload<QframeFeed>(payload, [](ByteReader& reader) {
    QframeFeed packet;
    packet.frame_id = reader.varint();
    read_gaps(reader, packet.slots, packet.clicks);
    packet.bases = get_bits_dense(reader);
    packet.bits = get_bits_dense(reader);
    if (packet.bases.size() != packet.clicks.size() ||
        packet.bits.size() != packet.clicks.size())
      throw std::invalid_argument("QframeFeed: one basis and bit per click");
    return packet;
  });
}

// ---- SiftAnnounce ----------------------------------------------------------

Bytes SiftAnnounce::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_gaps(out, slots, clicks);
  put_bits_dense(out, bob_bases);
  return out;
}

Result<SiftAnnounce> SiftAnnounce::decode(const Bytes& payload) {
  return parse_payload<SiftAnnounce>(payload, [](ByteReader& reader) {
    SiftAnnounce packet;
    packet.frame_id = reader.varint();
    read_gaps(reader, packet.slots, packet.clicks);
    packet.bob_bases = get_bits_dense(reader);
    if (packet.bob_bases.size() != packet.clicks.size())
      throw std::invalid_argument("SiftAnnounce: one basis per click");
    return packet;
  });
}

// ---- SiftDecision ----------------------------------------------------------

Bytes SiftDecision::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_dense(out, keep);
  return out;
}

Result<SiftDecision> SiftDecision::decode(const Bytes& payload) {
  return parse_payload<SiftDecision>(payload, [](ByteReader& reader) {
    SiftDecision packet;
    packet.frame_id = reader.varint();
    packet.keep = get_bits_dense(reader);
    return packet;
  });
}

// ---- SampleReveal ----------------------------------------------------------

Bytes SampleReveal::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_bits_dense(out, bits);
  return out;
}

Result<SampleReveal> SampleReveal::decode(const Bytes& payload) {
  return parse_payload<SampleReveal>(payload, [](ByteReader& reader) {
    SampleReveal packet;
    packet.frame_id = reader.varint();
    packet.bits = get_bits_dense(reader);
    return packet;
  });
}

// ---- ParityRequest / ParityResponse ---------------------------------------

Bytes ParityRequest::encode() const {
  Bytes out;
  out.reserve(3 + 15 * queries.size());
  put_varint(out, queries.size());
  for (const Query& query : queries) {
    put_u8(out, query.kind);
    put_u32(out, query.seed);
    put_varint(out, query.begin);
    put_varint(out, query.end);
  }
  return out;
}

Result<ParityRequest> ParityRequest::decode(const Bytes& payload) {
  return parse_payload<ParityRequest>(payload, [](ByteReader& reader) {
    ParityRequest packet;
    const std::uint64_t count = reader.varint();
    if (count == 0 || count > kMaxQueries)
      throw std::invalid_argument("ParityRequest: bad query count");
    // Each query takes at least 7 bytes, so a hostile count cannot make
    // this reserve more than the payload could describe.
    packet.queries.reserve(std::min<std::uint64_t>(count, reader.remaining() / 7));
    for (std::uint64_t i = 0; i < count; ++i) {
      Query& query = packet.queries.emplace_back();
      query.kind = reader.u8();
      if (query.kind > 1)
        throw std::invalid_argument("ParityRequest: unknown subset kind");
      query.seed = reader.u32();
      const std::uint64_t begin = reader.varint();
      const std::uint64_t end = reader.varint();
      if (begin > end || end > 0xFFFFFFFFu)
        throw std::invalid_argument("ParityRequest: bad range");
      query.begin = static_cast<std::uint32_t>(begin);
      query.end = static_cast<std::uint32_t>(end);
    }
    return packet;
  });
}

Bytes ParityResponse::encode() const {
  Bytes out;
  put_bits_dense(out, parities);
  return out;
}

Result<ParityResponse> ParityResponse::decode(const Bytes& payload) {
  return parse_payload<ParityResponse>(payload, [](ByteReader& reader) {
    ParityResponse packet;
    packet.parities = get_bits_dense(reader);
    if (packet.parities.empty() ||
        packet.parities.size() > ParityRequest::kMaxQueries)
      throw std::invalid_argument("ParityResponse: bad parity count");
    return packet;
  });
}

// ---- EcSummary -------------------------------------------------------------

Bytes EcSummary::encode() const {
  Bytes out;
  put_u32(out, corrections);
  put_u8(out, converged ? 1 : 0);
  return out;
}

Result<EcSummary> EcSummary::decode(const Bytes& payload) {
  return parse_payload<EcSummary>(payload, [](ByteReader& reader) {
    EcSummary packet;
    packet.corrections = reader.u32();
    const std::uint8_t raw = reader.u8();
    if (raw > 1) throw std::invalid_argument("EcSummary: non-boolean");
    packet.converged = raw != 0;
    return packet;
  });
}

// ---- VerifyHash ------------------------------------------------------------

Bytes VerifyHash::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_bytes(out, digest);
  return out;
}

Result<VerifyHash> VerifyHash::decode(const Bytes& payload) {
  return parse_payload<VerifyHash>(payload, [](ByteReader& reader) {
    VerifyHash packet;
    packet.frame_id = reader.varint();
    packet.digest = reader.bytes(20);
    return packet;
  });
}

// ---- PaParamsPacket --------------------------------------------------------

Bytes PaParamsPacket::encode() const {
  Bytes out;
  put_u32(out, n);
  put_u32(out, m);
  put_varint(out, modulus_exponents.size());
  for (std::uint32_t e : modulus_exponents) put_varint(out, e);
  put_bits_dense(out, multiplier);
  put_bits_dense(out, addend);
  return out;
}

Result<PaParamsPacket> PaParamsPacket::decode(const Bytes& payload) {
  return parse_payload<PaParamsPacket>(payload, [](ByteReader& reader) {
    PaParamsPacket packet;
    packet.n = reader.u32();
    packet.m = reader.u32();
    if (packet.m > packet.n)
      throw std::invalid_argument("PaParams: m > n");
    const std::uint64_t terms = reader.varint();
    if (terms > 64) throw std::invalid_argument("PaParams: dense modulus");
    packet.modulus_exponents.reserve(static_cast<std::size_t>(terms));
    // Strictly descending from n down to 0: the canonical form of a field
    // modulus (crypto::SparsePoly::is_canonical).
    for (std::uint64_t i = 0; i < terms; ++i) {
      const std::uint64_t e = reader.varint();
      if (i == 0 ? e != packet.n : e >= packet.modulus_exponents.back())
        throw std::invalid_argument("PaParams: modulus not canonical");
      packet.modulus_exponents.push_back(static_cast<std::uint32_t>(e));
    }
    if (packet.modulus_exponents.size() < 2 ||
        packet.modulus_exponents.back() != 0)
      throw std::invalid_argument("PaParams: modulus not canonical");
    packet.multiplier = get_bits_dense(reader);
    packet.addend = get_bits_dense(reader);
    if (packet.multiplier.size() != packet.n ||
        packet.addend.size() != packet.m)
      throw std::invalid_argument("PaParams: field sizes disagree");
    return packet;
  });
}

// ---- AbortPacket -----------------------------------------------------------

Bytes AbortPacket::encode() const {
  Bytes out;
  put_u8(out, reason);
  return out;
}

Result<AbortPacket> AbortPacket::decode(const Bytes& payload) {
  return parse_payload<AbortPacket>(payload, [](ByteReader& reader) {
    AbortPacket packet;
    packet.reason = reader.u8();
    return packet;
  });
}

// ---- KeyDigest -------------------------------------------------------------

Bytes KeyDigest::encode() const {
  Bytes out;
  put_varint(out, frame_id);
  put_varint(out, key_bits);
  put_bytes(out, digest);
  return out;
}

Result<KeyDigest> KeyDigest::decode(const Bytes& payload) {
  return parse_payload<KeyDigest>(payload, [](ByteReader& reader) {
    KeyDigest packet;
    packet.frame_id = reader.varint();
    packet.key_bits = reader.varint();
    packet.digest = reader.bytes(20);
    return packet;
  });
}

// ---- TranscriptTag ---------------------------------------------------------

Bytes TranscriptTag::encode() const {
  Bytes out;
  put_varint(out, tag.size());
  put_bytes(out, tag);
  return out;
}

Result<TranscriptTag> TranscriptTag::decode(const Bytes& payload) {
  return parse_payload<TranscriptTag>(payload, [](ByteReader& reader) {
    TranscriptTag packet;
    const std::uint64_t bytes = reader.varint();
    if (bytes == 0 || bytes > 8)
      throw std::invalid_argument("TranscriptTag: tag of 1 to 8 bytes");
    packet.tag = reader.bytes(bytes);
    return packet;
  });
}

// ---- Whole-packet codec ----------------------------------------------------

namespace {

template <typename Packet>
Result<DistillationPacket> lift(Result<Packet> decoded) {
  if (!decoded.ok())
    return Result<DistillationPacket>::failure(decoded.error);
  return Result<DistillationPacket>::success(
      DistillationPacket(std::move(decoded.value)));
}

}  // namespace

Result<DistillationPacket> decode_packet(const Frame& frame) {
  switch (frame.type) {
    case PacketType::kQframeFeed:
      return lift(QframeFeed::decode(frame.payload));
    case PacketType::kSiftAnnounce:
      return lift(SiftAnnounce::decode(frame.payload));
    case PacketType::kSiftDecision:
      return lift(SiftDecision::decode(frame.payload));
    case PacketType::kSampleReveal:
      return lift(SampleReveal::decode(frame.payload));
    case PacketType::kParityRequest:
      return lift(ParityRequest::decode(frame.payload));
    case PacketType::kParityResponse:
      return lift(ParityResponse::decode(frame.payload));
    case PacketType::kEcSummary:
      return lift(EcSummary::decode(frame.payload));
    case PacketType::kVerifyHash:
      return lift(VerifyHash::decode(frame.payload));
    case PacketType::kPaParams:
      return lift(PaParamsPacket::decode(frame.payload));
    case PacketType::kAbort:
      return lift(AbortPacket::decode(frame.payload));
    case PacketType::kKeyDigest:
      return lift(KeyDigest::decode(frame.payload));
    case PacketType::kTranscriptTag:
      return lift(TranscriptTag::decode(frame.payload));
    default:
      return Result<DistillationPacket>::failure(WireError::kMalformedPayload);
  }
}

Result<DistillationPacket> decode_packet_bytes(
    std::span<const std::uint8_t> buffer) {
  const auto frame = decode_frame(buffer);
  if (!frame.ok()) return Result<DistillationPacket>::failure(frame.error);
  return decode_packet(frame.value);
}

}  // namespace qkd::wire
