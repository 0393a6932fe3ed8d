// The authentication pads' balance: a batch spends one 32-bit tag's pad
// per direction and an accepted batch repays what is owed, so a working
// link keeps its prepositioned runway for good, and the registry shows a
// link that does not.
#include <gtest/gtest.h>

#include "src/obs/health/alert.hpp"
#include "src/obs/health/rules.hpp"
#include "src/obs/metrics.hpp"
#include "src/optics/attacks.hpp"
#include "src/qkd/engine.hpp"

namespace qkd::proto {
namespace {

TEST(PadRunway, TenThousandBatchesAtTenKmKeepTheDefaultRunway) {
  // The law the per-message seals broke: they spent 256 pad bits a batch
  // and got 192 back, so the default 8 kbit runway ran out after ~110
  // batches at any distance. Half-size frames keep the run short; at 10
  // km they still distill ~160 bits an accepted batch, well over the 64
  // it owes. Afterwards the balance is the runway less what the batches
  // since the last repayment owe (at most one batch's 64 bits, if the
  // last batch aborted), and the books close exactly.
  QkdLinkConfig config;
  config.frame_slots = 1 << 19;
  QkdLinkSession session(config, 1);
  constexpr std::size_t kBatches = 10000;
  std::size_t trailing_aborts = 0;
  for (std::size_t i = 0; i < kBatches; ++i)
    trailing_aborts = session.run_batch().accepted ? 0 : trailing_aborts + 1;
  const SessionTotals& totals = session.totals();
  EXPECT_EQ(totals.aborted(AbortReason::kAuthExhausted), 0u);
  const AuthenticationService& auth = session.alice_auth();
  const std::size_t runway = config.preposition_extra_bits;
  EXPECT_EQ(auth.pad_bits_consumed(), 64 * kBatches);
  EXPECT_EQ(auth.pad_bits_available() + auth.pad_bits_owed(), runway);
  EXPECT_EQ(auth.pad_bits_owed(), 64 * trailing_aborts);
  EXPECT_LE(runway - auth.pad_bits_available(), 64u);
  EXPECT_EQ(session.bob_auth().pad_bits_available(),
            auth.pad_bits_available());
}

TEST(PadRunway, BoundMetricsExportThePadBalanceAndSpend) {
  obs::MetricsRegistry registry;
  QkdLinkSession session(QkdLinkConfig{}, 14);
  session.bind_metrics(registry, "qkd_link");
  ASSERT_TRUE(session.run_batch().accepted);
  qkd::optics::InterceptResendAttack eve(1.0);
  ASSERT_FALSE(session.run_batch(&eve).accepted);
  const auto samples = registry.snapshot();
  const auto value = [&](const std::string& name) {
    for (const auto& sample : samples)
      if (sample.name == name) return sample.value;
    ADD_FAILURE() << "no " << name;
    return -1.0;
  };
  // Two batches spent 128 bits; the first repaid its 64, the second,
  // aborted, owes its own.
  EXPECT_EQ(value("qkd_link_auth_pad_spent_bits"), 128.0);
  EXPECT_EQ(value("qkd_link_auth_pad_bits"),
            static_cast<double>(QkdLinkConfig{}.preposition_extra_bits - 64));
}

/// Runs `session` for `seconds` of link time, one second a step, feeding
/// `engine` the registry after each.
void run_watched(QkdLinkSession& session, obs::health::AlertEngine& engine,
                 int seconds) {
  for (int t = 1; t <= seconds; ++t) {
    session.advance(1.0);
    engine.evaluate(t * qkd::kSecond);
  }
}

TEST(PadRunway, DrainingRuleFiresOnlyWhereThePadsAreNotRepaid) {
  // Intercept-resend on every batch: each aborts at its sample and repays
  // nothing, so the runway falls 64 bits a ~1 s batch. The same link
  // without Eve repays every batch and the rule stays quiet.
  for (const bool tapped : {true, false}) {
    SCOPED_TRACE(tapped ? "tapped" : "clean");
    obs::MetricsRegistry registry;
    QkdLinkSession session(QkdLinkConfig{}, 3);
    if (tapped)
      session.set_attack(
          std::make_unique<qkd::optics::InterceptResendAttack>(1.0));
    session.bind_metrics(registry, "link0");
    obs::health::AlertEngine engine(registry);
    engine.add_rule(
        obs::health::rules::pad_runway_draining("link0_auth_pad_bits", "0"));
    run_watched(session, engine, 90);
    const auto state = engine.state("pad_runway_draining:0");
    if (tapped) {
      EXPECT_EQ(state, obs::health::AlertState::kFiring);
      EXPECT_EQ(session.totals().accepted_batches, 0u);
    } else {
      EXPECT_EQ(state, obs::health::AlertState::kInactive);
      EXPECT_GT(session.totals().accepted_batches, 80u);
    }
  }
}

}  // namespace
}  // namespace qkd::proto
