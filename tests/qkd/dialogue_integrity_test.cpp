// The dialogue's integrity on a hostile or noisy channel. Every frame
// carries a CRC-32C, so noise is loss; each direction's transcript is
// tagged once, so an adversary's change to any frame ends the batch
// without a key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "src/qkd/engine.hpp"
#include "src/qkd/wire_link.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {
namespace {

constexpr std::uint64_t kSeed = 2003;  // its first batch is accepted

/// Eve's edit: the `nth` frame of `type` sent toward `to_b` (true: Alice
/// to Bob), with the low bit of its last payload byte flipped and the
/// checksum made good, in every copy sent, retransmissions included.
struct Edit {
  wire::PacketType type;
  bool to_b;
  int nth = 0;
};

std::string describe(const Edit& edit) {
  return std::string(wire::packet_type_name(edit.type)) +
         (edit.to_b ? " to Bob #" : " to Alice #") + std::to_string(edit.nth);
}

Bytes flipped(const Bytes& frame) {
  auto decoded = wire::decode_checked_frame(frame);
  EXPECT_TRUE(decoded.ok());
  decoded.value.payload.back() ^= 0x01;
  return wire::encode_checked_frame(decoded.value.type, decoded.value.payload);
}

struct Outcome {
  BatchResult batch;
  std::size_t edited = 0;  // copies Eve altered
  bool pads_agree = false;
};

Outcome run_edited(const Edit& edit) {
  QkdLinkSession session(QkdLinkConfig{}, kSeed);
  std::optional<Bytes> target;
  int seen = 0;
  Outcome out;
  session.channel().set_impairment(
      [&](const Bytes& message, bool to_b) -> std::optional<Bytes> {
        if (to_b != edit.to_b) return message;
        if (!target.has_value()) {
          const auto frame = wire::decode_checked_frame(message);
          if (frame.ok() && frame.value.type == edit.type && seen++ == edit.nth)
            target = message;
        }
        if (target.has_value() && message == *target) {
          ++out.edited;
          return flipped(message);
        }
        return message;
      });
  out.batch = session.run_batch();
  out.pads_agree = session.alice_auth().pad_bits_available() ==
                       session.bob_auth().pad_bits_available() &&
                   session.alice_auth().pad_bits_owed() ==
                       session.bob_auth().pad_bits_owed();
  return out;
}

TEST(DialogueIntegrity, AlteringAnyOneFrameInEveryCopyDepositsNoKey) {
  {
    QkdLinkSession clean(QkdLinkConfig{}, kSeed);
    ASSERT_TRUE(clean.run_batch().accepted);
  }
  using enum wire::PacketType;
  const Edit edits[] = {
      {kSiftAnnounce, false},    {kSiftDecision, true},
      {kSampleReveal, true},     {kSampleReveal, false},
      {kParityRequest, false},   {kParityRequest, false, 10},
      {kParityResponse, true},   {kParityResponse, true, 10},
      {kEcSummary, false},       {kVerifyHash, true},
      {kVerifyHash, false},      {kPaParams, true},
      {kTranscriptTag, true},    {kTranscriptTag, false},
  };
  for (const Edit& edit : edits) {
    SCOPED_TRACE(describe(edit));
    const Outcome out = run_edited(edit);
    ASSERT_GT(out.edited, 0u);
    EXPECT_FALSE(out.batch.accepted);
    EXPECT_TRUE(out.batch.key.empty());
    EXPECT_EQ(out.batch.distilled_bits, 0u);
    EXPECT_TRUE(out.pads_agree);
    // A change no stage of its own checks reaches the end and fails there.
    if (edit.type == kPaParams || edit.type == kTranscriptTag) {
      ASSERT_FALSE(out.batch.stages.empty());
      EXPECT_EQ(out.batch.stages.back().name, "auth-replenish");
      EXPECT_EQ(out.batch.reason, AbortReason::kVerifyFailed);
    }
  }
}

TEST(DialogueIntegrity, AlteredFramesThatFailTheirChecksumAreLoss) {
  // Eve alters a frame but leaves its checksum: each copy is dropped as
  // damaged, retransmission runs out, and the batch ends kChannelLost.
  QkdLinkSession session(QkdLinkConfig{}, kSeed);
  std::size_t damaged = 0;
  session.channel().set_impairment(
      [&](const Bytes& message, bool to_b) -> std::optional<Bytes> {
        const auto frame = wire::decode_checked_frame(message);
        if (!to_b || !frame.ok() ||
            frame.value.type != wire::PacketType::kPaParams)
          return message;
        ++damaged;
        Bytes mangled = message;
        mangled[mangled.size() / 2] ^= 0x10;
        return mangled;
      });
  const BatchResult batch = session.run_batch();
  EXPECT_EQ(batch.reason, AbortReason::kChannelLost);
  EXPECT_TRUE(batch.key.empty());
  EXPECT_EQ(damaged, static_cast<std::size_t>(kMaxSendAttempts));
}

TEST(DialogueIntegrity, CorruptionCostsNoMoreThanTheSameRateOfLoss) {
  // At 10 km on seed 1, 300 batches: flipping a byte of 20 % of frames
  // used to end 60 batches kEcNotConverged and 3 kEntropyExhausted, while
  // dropping 20 % accepted all 300. A damaged frame now fails its
  // checksum and is retransmitted like a lost one, so the two accept as
  // many batches: within the larger of 2 and 5 sigma of the difference of
  // two binomial counts at the loss run's accept rate.
  constexpr std::size_t kBatches = 300;
  std::size_t accepted[2] = {0, 0};
  std::size_t ec_failures = 0;
  for (int corrupt = 0; corrupt < 2; ++corrupt) {
    QkdLinkSession session(QkdLinkConfig{}, 1);
    session.channel().set_impairment(
        corrupt ? qkd::net::make_corrupt_impairment(0.2, 2)
                : qkd::net::make_drop_impairment(0.2, 2));
    for (std::size_t i = 0; i < kBatches; ++i)
      accepted[corrupt] += session.run_batch().accepted;
    if (corrupt) {
      ec_failures = session.totals().aborted(AbortReason::kEcNotConverged);
      EXPECT_GT(session.channel().stats().modified, 0u);
    }
  }
  const double rate =
      static_cast<double>(accepted[0]) / static_cast<double>(kBatches);
  const double bound = std::max(
      2.0, 5.0 * std::sqrt(2.0 * kBatches * rate * (1.0 - rate)));
  EXPECT_LE(std::abs(static_cast<double>(accepted[1]) -
                     static_cast<double>(accepted[0])),
            bound)
      << accepted[1] << " under corruption, " << accepted[0] << " under loss";
  EXPECT_EQ(ec_failures, 0u);
}

}  // namespace
}  // namespace qkd::proto
