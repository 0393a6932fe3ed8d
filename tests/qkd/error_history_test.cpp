// The link's error record: classic Cascade sizes its first pass from the
// exact error counts of the link's recent verified batches, pooled with
// the batch's own sample, instead of from the sample alone. The record is
// fed only by batches whose strings verify, and a sample that the record
// cannot explain (a step in the error rate) drops it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/optics/attacks.hpp"
#include "src/qkd/engine.hpp"
#include "src/qkd/pipeline.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {
namespace {

TEST(ErrorHistory, TheFirstBatchIsSizedFromItsSampleAlone) {
  ErrorHistory history;
  EXPECT_TRUE(history.empty());
  EXPECT_DOUBLE_EQ(history.estimate(3, 50), 0.06);
  EXPECT_DOUBLE_EQ(history.estimate(0, 0), 0.0);
}

TEST(ErrorHistory, PoolsTheRecordWithTheSample) {
  ErrorHistory history;
  history.record(60, 1000);
  EXPECT_DOUBLE_EQ(history.estimate(2, 50), 62.0 / 1050.0);
  // Each older batch weighs kDecay times the next.
  history.record(80, 1000);
  EXPECT_DOUBLE_EQ(history.errors(), 60.0 * ErrorHistory::kDecay + 80.0);
  EXPECT_DOUBLE_EQ(history.bits(), 1000.0 * ErrorHistory::kDecay + 1000.0);
  // No sample: the record alone.
  EXPECT_DOUBLE_EQ(history.estimate(0, 0),
                   history.errors() / history.bits());
}

TEST(ErrorHistory, ASampleTheRecordCannotExplainDropsIt) {
  ErrorHistory history;
  for (int i = 0; i < 10; ++i) history.record(60, 1000);
  // 6 % recorded: 5 or 12 errors in 100 are ordinary, 25 are not
  // (P[X >= 25] ~ 1e-8), nor is 0 in 300 (P[X = 0] ~ 1e-8).
  EXPECT_NE(history.estimate(5, 100), 0.05);
  EXPECT_NE(history.estimate(12, 100), 0.12);
  EXPECT_FALSE(history.empty());
  EXPECT_DOUBLE_EQ(history.estimate(25, 100), 0.25);
  EXPECT_TRUE(history.empty());
  for (int i = 0; i < 10; ++i) history.record(60, 1000);
  EXPECT_DOUBLE_EQ(history.estimate(0, 300), 0.0);
  EXPECT_TRUE(history.empty());
}

/// The error-correction stage with Bob's record cleared first, so classic
/// Cascade is sized from each batch's sample alone.
class SampleOnlySizing final : public PipelineStage {
 public:
  explicit SampleOnlySizing(std::unique_ptr<PipelineStage> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  AbortReason run(BatchContext& ctx) override {
    ctx.bob.party.errors = {};
    return inner_->run(ctx);
  }

 private:
  std::unique_ptr<PipelineStage> inner_;
};

struct RunTally {
  double ec_messages = 0.0;  // summed over batches that reached correction
  std::size_t corrected_batches = 0;
  std::size_t failed = 0;  // kEcNotConverged + kVerifyFailed
  std::size_t accepted = 0;
};

/// A 10 km link whose pad runway outlasts a long run: an aborted batch
/// spends pad and returns none, so the default runway would end the run
/// in kAuthExhausted.
QkdLinkConfig long_run_config() {
  QkdLinkConfig config;
  config.link.fiber_km = 10.0;
  config.preposition_extra_bits = 1 << 20;
  return config;
}

RunTally run_10km(bool sample_only, std::size_t batches) {
  QkdLinkSession session(long_run_config(), 27);
  if (sample_only) {
    auto stages = default_pipeline();
    stages[2] = std::make_unique<SampleOnlySizing>(std::move(stages[2]));
    session.set_pipeline(std::move(stages));
  }
  RunTally tally;
  for (std::size_t i = 0; i < batches; ++i) {
    const BatchResult batch = session.run_batch();
    if (batch.stages.size() > 2) {
      tally.ec_messages +=
          static_cast<double>(batch.stages[2].control_messages);
      ++tally.corrected_batches;
    }
    tally.failed += batch.reason == AbortReason::kEcNotConverged ||
                    batch.reason == AbortReason::kVerifyFailed;
    tally.accepted += batch.accepted;
  }
  return tally;
}

TEST(ErrorHistory, SizingFromTheRecordCutsCorrectionMessages) {
  // The law: over 600 batches of a 10 km link, classic Cascade sized from
  // the record sends at least 30 % fewer messages per batch than the same
  // link sized from each batch's 5 % sample, and no more batches fail
  // correction or verification. (At this seed it reads ~39 % fewer.)
  constexpr std::size_t kBatches = 600;
  const RunTally sample = run_10km(/*sample_only=*/true, kBatches);
  const RunTally record = run_10km(/*sample_only=*/false, kBatches);
  ASSERT_GT(sample.corrected_batches, kBatches * 9 / 10);
  ASSERT_GT(record.corrected_batches, kBatches * 9 / 10);
  const double sample_mean =
      sample.ec_messages / static_cast<double>(sample.corrected_batches);
  const double record_mean =
      record.ec_messages / static_cast<double>(record.corrected_batches);
  EXPECT_LE(record_mean, 0.7 * sample_mean)
      << "sample-sized " << sample_mean << ", record-sized " << record_mean;
  EXPECT_LE(record.failed, sample.failed);
  EXPECT_GE(record.accepted, sample.accepted);
}

TEST(ErrorHistory, AnUnverifiedBatchLeavesTheRecordUnchanged) {
  QkdLinkSession session(QkdLinkConfig{}, 5);
  for (int i = 0; i < 4; ++i) {
    const double bits_before = session.error_history().bits();
    const BatchResult batch = session.run_batch();
    ASSERT_TRUE(batch.accepted) << abort_reason_name(batch.reason);
    EXPECT_GT(session.error_history().bits(), bits_before);
  }
  // Every parity answer flipped in transit, its checksum made good: the
  // corrector chases errors that are not there, and the batch cannot
  // verify.
  session.channel().set_impairment(
      [](const Bytes& message, bool to_b) -> std::optional<Bytes> {
        const auto frame = wire::decode_checked_frame(message);
        if (!to_b || !frame.ok() ||
            frame.value.type != wire::PacketType::kParityResponse)
          return message;
        auto response = wire::ParityResponse::decode(frame.value.payload);
        if (!response.ok()) return message;
        for (std::size_t i = 0; i < response.value.parities.size(); ++i)
          response.value.parities.flip(i);
        return wire::to_checked_frame(response.value);
      });
  const double errors = session.error_history().errors();
  const double bits = session.error_history().bits();
  for (int i = 0; i < 3; ++i) {
    const BatchResult batch = session.run_batch();
    EXPECT_TRUE(batch.reason == AbortReason::kEcNotConverged ||
                batch.reason == AbortReason::kVerifyFailed)
        << abort_reason_name(batch.reason);
    EXPECT_EQ(session.error_history().errors(), errors);
    EXPECT_EQ(session.error_history().bits(), bits);
  }
}

TEST(ErrorHistory, TheSizingFollowsAStepInTheErrorRate) {
  // A partial intercept-resend tap switched on mid-run adds ~f/4 to the
  // error rate. Every batch on either side of the step still converges,
  // and within a few verified batches the rate that sizes the first pass
  // sits at the new error rate rather than the old one.
  QkdLinkSession session(long_run_config(), 11);
  auto rate = [&] {
    return session.error_history().errors() / session.error_history().bits();
  };
  auto run = [&](qkd::optics::Attack* tap, std::size_t batches) {
    double qber = 0.0;
    for (std::size_t i = 0; i < batches; ++i) {
      const BatchResult batch = session.run_batch(tap);
      EXPECT_NE(batch.reason, AbortReason::kEcNotConverged);
      qber += batch.qber_actual;
    }
    return qber / static_cast<double>(batches);
  };
  const double before = run(nullptr, 30);
  EXPECT_NEAR(rate(), before, 0.01);
  qkd::optics::InterceptResendAttack tap(0.16);
  run(&tap, 5);
  const double after = run(&tap, 30);
  ASSERT_GT(after, before + 0.03);
  EXPECT_NEAR(rate(), after, 0.01);
  EXPECT_GT(rate(), (before + after) / 2);
}

}  // namespace
}  // namespace qkd::proto
