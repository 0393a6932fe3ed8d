// The batched parity dialogue on the wire: one request frame per batch,
// one response of packed parity bits, duplicates charged once, and a
// request that names a range outside Alice's string dropped as malformed.
#include "src/qkd/wire_link.hpp"

#include <gtest/gtest.h>

#include "src/net/channel_transport.hpp"
#include "tests/testing/seeded_rng.hpp"

namespace qkd::proto {
namespace {

/// Alice's server and Bob's client on the two sides of one PublicChannel,
/// the client pumping the server between send and receive.
struct Dialogue {
  explicit Dialogue(const qkd::BitVector& alice_bits)
      : server(alice_bits), client(bob_io, [this] { serve_one(); }) {}

  /// Alice takes one frame off her end, if one came, and serves it.
  void serve_one() {
    const auto raw = alice_io.recv_frame();
    if (!raw.has_value()) return;
    const auto frame = wire::decode_frame(*raw);
    if (frame.ok()) server.serve_frame(alice_io, frame.value);
  }

  net::PublicChannel channel;
  net::ChannelTransport alice_io{channel, net::ChannelTransport::Side::kA};
  net::ChannelTransport bob_io{channel, net::ChannelTransport::Side::kB};
  WireParityServer server;
  WireParityClient client;
};

std::vector<ParityQuery> mixed_batch(std::size_t n) {
  std::vector<ParityQuery> batch;
  for (std::uint32_t i = 0; i < 40; ++i)
    batch.push_back({i % 2 == 0 ? ParityQuery::Kind::kPermutedRange
                                : ParityQuery::Kind::kLfsrSubset,
                     i / 4, i, static_cast<std::uint32_t>(n / 4 + i)});
  return batch;
}

wire::Frame request_frame(const wire::ParityRequest& request) {
  const auto frame = wire::decode_frame(wire::to_frame(request));
  EXPECT_TRUE(frame.ok());
  return frame.value;
}

TEST(WireParity, ABatchIsOneRequestAndOneResponse) {
  QKD_SEEDED_RNG(rng, 1);
  const qkd::BitVector bits = rng.next_bits(500);
  Dialogue d(bits);
  const auto batch = mixed_batch(bits.size());
  LocalParityOracle reference(bits);
  EXPECT_EQ(d.client.parities(batch), reference.parities(batch));
  EXPECT_EQ(d.channel.stats().messages_ba, 1u);  // one request
  EXPECT_EQ(d.channel.stats().messages_ab, 1u);  // one response
  EXPECT_EQ(d.server.disclosed(), batch.size());
}

TEST(WireParity, BatchPastTheFrameLimitSplitsIntoRequests) {
  QKD_SEEDED_RNG(rng, 2);
  const qkd::BitVector bits = rng.next_bits(64);
  Dialogue d(bits);
  std::vector<ParityQuery> batch(wire::ParityRequest::kMaxQueries + 3);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = {ParityQuery::Kind::kPermutedRange, 5,
                static_cast<std::uint32_t>(i % 64), 64};
  LocalParityOracle reference(bits);
  EXPECT_EQ(d.client.parities(batch), reference.parities(batch));
  EXPECT_EQ(d.channel.stats().messages_ba, 2u);
  EXPECT_EQ(d.server.disclosed(), batch.size());
}

TEST(WireParity, RetransmittedDuplicateBatchIsChargedOnce) {
  QKD_SEEDED_RNG(rng, 3);
  const qkd::BitVector bits = rng.next_bits(300);
  net::PublicChannel channel;
  net::ChannelTransport alice_io(channel, net::ChannelTransport::Side::kA);
  WireParityServer server(bits);
  wire::ParityRequest request;
  request.queries = {{1, 9, 0, 100}, {0, 4, 3, 50}, {1, 9, 100, 300}};
  const wire::Frame frame = request_frame(request);

  // The response to the first copy is lost; the client sends it again.
  ASSERT_TRUE(server.serve_frame(alice_io, frame));
  ASSERT_TRUE(server.serve_frame(alice_io, frame));
  EXPECT_EQ(server.disclosed(), 3u);
  EXPECT_EQ(channel.stats().messages_ab, 2u);
  const auto first = channel.recv_at_b();
  const auto second = channel.recv_at_b();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(*first, *second);

  // A different batch is new disclosure.
  request.queries.pop_back();
  ASSERT_TRUE(server.serve_frame(alice_io, request_frame(request)));
  EXPECT_EQ(server.disclosed(), 5u);
}

TEST(WireParity, LostResponsesAreRetransmittedWithoutExtraDisclosure) {
  QKD_SEEDED_RNG(rng, 4);
  const qkd::BitVector bits = rng.next_bits(400);
  Dialogue d(bits);
  // Drop the first two responses (Alice -> Bob); requests pass.
  int dropped = 0;
  d.channel.set_impairment(
      [&](const Bytes& message, bool to_b) -> std::optional<Bytes> {
        if (to_b && dropped++ < 2) return std::nullopt;
        return message;
      });
  const auto batch = mixed_batch(bits.size());
  LocalParityOracle reference(bits);
  EXPECT_EQ(d.client.parities(batch), reference.parities(batch));
  EXPECT_EQ(d.channel.stats().messages_ba, 3u);
  EXPECT_EQ(d.server.disclosed(), batch.size());
}

TEST(WireParity, OutOfRangeRequestIsDroppedNotThrown) {
  // Regression: a request whose end exceeds the member count decoded fine
  // and then threw std::out_of_range out of the server.
  QKD_SEEDED_RNG(rng, 5);
  const qkd::BitVector bits = rng.next_bits(100);
  net::PublicChannel channel;
  net::ChannelTransport alice_io(channel, net::ChannelTransport::Side::kA);
  WireParityServer server(bits);
  for (std::uint8_t kind : {0, 1}) {
    wire::ParityRequest request;
    // A valid query first: nothing of a bad batch may be answered.
    request.queries = {{kind, 7, 0, 10}, {kind, 7, 0, 4000}};
    bool served = true;
    EXPECT_NO_THROW(served =
                        server.serve_frame(alice_io, request_frame(request)));
    EXPECT_FALSE(served);
  }
  EXPECT_EQ(server.disclosed(), 0u);
  EXPECT_EQ(channel.stats().messages_ab, 0u);
  EXPECT_FALSE(channel.recv_at_b().has_value());
}

TEST(WireParity, OutOfRangeQueryEndsInChannelLost) {
  QKD_SEEDED_RNG(rng, 6);
  const qkd::BitVector bits = rng.next_bits(100);
  Dialogue d(bits);
  const ParityQuery bad{ParityQuery::Kind::kPermutedRange, 3, 0, 4000};
  EXPECT_THROW(d.client.parity(bad), ChannelLostError);
  EXPECT_EQ(d.channel.stats().messages_ba,
            static_cast<std::uint64_t>(WireParityClient::kMaxAttempts));
  EXPECT_EQ(d.server.disclosed(), 0u);
}

}  // namespace
}  // namespace qkd::proto
