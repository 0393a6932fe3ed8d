#include "src/wire/etsi.hpp"

#include <gtest/gtest.h>

#include "src/wire/packets.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::wire {
namespace {

template <typename Message>
Message round_trip(const Message& message) {
  const Bytes framed = to_frame(message);
  const auto frame = decode_frame(framed);
  EXPECT_TRUE(frame.ok());
  const auto decoded = decode_etsi(frame.value);
  EXPECT_TRUE(decoded.ok()) << packet_type_name(Message::kType);
  EXPECT_TRUE(std::holds_alternative<Message>(decoded.value));
  return std::get<Message>(decoded.value);
}

TEST(Etsi, RegisterRoundTrips) {
  KmsRegister request;
  request.name = "vpn-gw-7 (interactive)";
  request.src = 2;
  request.dst = 5;
  request.qos = 0;
  EXPECT_EQ(round_trip(request), request);

  KmsRegisterReply reply;
  reply.client_id = 4031;
  EXPECT_EQ(round_trip(reply), reply);
}

TEST(Etsi, EmptyNameSurvives) {
  KmsRegister request;  // name left empty
  EXPECT_EQ(round_trip(request), request);
}

TEST(Etsi, GetKeyDialogueRoundTrips) {
  KmsGetKey request;
  request.client_id = 12;
  request.request_id = 901;
  request.bits = 256;
  EXPECT_EQ(round_trip(request), request);

  QKD_SEEDED_RNG(rng, 17);
  KmsGrant grant;
  grant.request_id = 901;
  grant.status = 0;
  grant.key_id = 0xFEEDF00DCAFEULL;
  grant.bits = rng.next_bits(256);
  grant.compromised = true;
  EXPECT_EQ(round_trip(grant), grant);

  KmsReject reject;
  reject.request_id = 902;
  reject.status = 2;
  EXPECT_EQ(round_trip(reject), reject);
}

TEST(Etsi, GetKeyWithIdDialogueRoundTrips) {
  KmsGetKeyWithId request;
  request.client_id = 3;
  request.request_id = 11;
  request.key_id = 0xABCDEF01;
  EXPECT_EQ(round_trip(request), request);

  QKD_SEEDED_RNG(rng, 23);
  KmsKeyWithIdReply reply;
  reply.request_id = 11;
  reply.ok = true;
  reply.key_id = 0xABCDEF01;
  reply.bits = rng.next_bits(256);
  EXPECT_EQ(round_trip(reply), reply);

  KmsKeyWithIdReply unknown;  // claim of an expired/unknown key_id
  unknown.request_id = 12;
  EXPECT_EQ(round_trip(unknown), unknown);
}

TEST(Etsi, StatusAndByeRoundTrip) {
  KmsStatus request;
  request.client_id = 44;
  EXPECT_EQ(round_trip(request), request);

  KmsStatusReply reply;
  reply.requests = 10000;
  reply.granted = 9876;
  reply.queue_depth = 17;
  reply.claims_fulfilled = 9800;
  EXPECT_EQ(round_trip(reply), reply);

  EXPECT_EQ(round_trip(KmsBye{}), KmsBye{});
}

TEST(Etsi, TruncatedMessageIsMalformed) {
  KmsGrant grant;
  grant.request_id = 1;
  QKD_SEEDED_RNG(rng, 9);
  grant.bits = rng.next_bits(128);
  Bytes payload = grant.encode();
  payload.pop_back();
  EXPECT_EQ(KmsGrant::decode(payload).error, WireError::kMalformedPayload);
}

TEST(Etsi, TrailingBytesAreRejected) {
  KmsStatus request;
  Bytes payload = request.encode();
  payload.push_back(7);
  EXPECT_EQ(KmsStatus::decode(payload).error, WireError::kTrailingBytes);
  EXPECT_EQ(KmsBye::decode(Bytes{0}).error, WireError::kTrailingBytes);
}

TEST(Etsi, DecodeEtsiRejectsDistillationFrames) {
  const Frame frame{PacketType::kSiftAnnounce, {}, {}};
  EXPECT_EQ(decode_etsi(frame).error, WireError::kMalformedPayload);
}

}  // namespace
}  // namespace qkd::wire
