#include "src/qkd/sifting.hpp"

#include <stdexcept>

#include "src/qkd/rle.hpp"

namespace qkd::proto {
namespace {

void put_bitvector(Bytes& out, const qkd::BitVector& bits) {
  put_varint(out, bits.size());
  const auto bytes = bits.to_bytes();
  put_bytes(out, bytes);
}

qkd::BitVector read_bitvector(ByteReader& reader) {
  const std::uint64_t n = reader.varint();
  const Bytes raw = reader.bytes((n + 7) / 8);
  qkd::BitVector bits = qkd::BitVector::from_bytes(raw);
  bits.resize(n);
  return bits;
}

}  // namespace

Bytes SiftMessage::serialize() const {
  Bytes out;
  put_u64(out, frame_id);
  const Bytes rle = rle_encode(detected);
  put_varint(out, rle.size());
  put_bytes(out, rle);
  put_bitvector(out, bob_bases);
  return out;
}

SiftMessage SiftMessage::deserialize(const Bytes& wire) {
  try {
    ByteReader reader(wire);
    SiftMessage msg;
    msg.frame_id = reader.u64();
    const std::uint64_t rle_len = reader.varint();
    msg.detected = rle_decode(reader.bytes(rle_len));
    msg.bob_bases = read_bitvector(reader);
    if (!reader.done())
      throw std::invalid_argument("SiftMessage: trailing bytes");
    if (msg.bob_bases.size() != msg.detected.popcount())
      throw std::invalid_argument("SiftMessage: basis count != detections");
    return msg;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("SiftMessage: truncated");
  }
}

Bytes SiftResponse::serialize() const {
  Bytes out;
  put_u64(out, frame_id);
  put_bitvector(out, keep);
  return out;
}

SiftResponse SiftResponse::deserialize(const Bytes& wire) {
  try {
    ByteReader reader(wire);
    SiftResponse msg;
    msg.frame_id = reader.u64();
    msg.keep = read_bitvector(reader);
    if (!reader.done())
      throw std::invalid_argument("SiftResponse: trailing bytes");
    return msg;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("SiftResponse: truncated");
  }
}

SiftMessage make_sift_message(std::uint64_t frame_id,
                              const qkd::optics::DetectionRecord& bob) {
  SiftMessage msg;
  msg.frame_id = frame_id;
  msg.detected = bob.detected;
  bob.detected.for_each_set_bit(
      [&](std::size_t slot) { msg.bob_bases.push_back(bob.bases.get(slot)); });
  return msg;
}

AliceSiftResult alice_sift(const qkd::optics::PulseTrainRecord& alice,
                           const SiftMessage& msg) {
  if (msg.detected.size() != alice.size())
    throw std::invalid_argument("alice_sift: frame size mismatch");
  AliceSiftResult result;
  result.response.frame_id = msg.frame_id;
  std::size_t det_index = 0;
  msg.detected.for_each_set_bit([&](std::size_t slot) {
    const bool match =
        msg.bob_bases.get(det_index++) == alice.bases.get(slot);
    result.response.keep.push_back(match);
    if (match) {
      result.outcome.bits.push_back(alice.values.get(slot));
      result.outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
    }
  });
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::DetectionRecord& bob,
                               const SiftMessage& msg,
                               const SiftResponse& response) {
  if (response.keep.size() != msg.bob_bases.size())
    throw std::invalid_argument("bob_apply_response: keep length mismatch");
  if (response.frame_id != msg.frame_id)
    throw std::invalid_argument("bob_apply_response: frame id mismatch");
  SiftOutcome outcome;
  std::size_t det_index = 0;
  bob.detected.for_each_set_bit([&](std::size_t slot) {
    if (!response.keep.get(det_index++)) return;
    outcome.bits.push_back(bob.bits.get(slot));
    outcome.slot_indices.push_back(static_cast<std::uint32_t>(slot));
  });
  return outcome;
}

}  // namespace qkd::proto
