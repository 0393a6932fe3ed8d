// The in-process transcript, pinned: seeded QkdLinkSession batches over a
// clean classical channel, each reduced to its outcome, a digest of its key
// and the counts the dialogue produced on the way (sifted, sampled,
// corrected and disclosed bits, control messages and bytes). The values
// were captured from a build and are held here so that a change to how the
// dialogue is run (who sends what, when, from which DRBG) that is meant to
// change no behaviour is seen to change none: any moved draw, extra frame
// or lost notice shows up as a row that no longer matches.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/crypto/sha1.hpp"
#include "src/optics/attacks.hpp"
#include "src/qkd/engine.hpp"

namespace qkd::proto {
namespace {

struct Row {
  AbortReason reason = AbortReason::kNone;
  const char* key_sha1 = "";  // hex SHA-1 of the key's bytes
  std::size_t sifted = 0;
  std::size_t sampled = 0;
  std::size_t corrected = 0;
  std::size_t disclosed = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
};

std::string describe(const Row& row) {
  std::ostringstream out;
  out << "{AbortReason(" << static_cast<int>(row.reason) << "), \""
      << row.key_sha1 << "\", " << row.sifted << ", " << row.sampled << ", "
      << row.corrected << ", " << row.disclosed << ", " << row.messages
      << ", " << row.bytes << "}";
  return out.str();
}

struct Case {
  const char* name;
  std::function<void(QkdLinkConfig&)> configure;
  std::uint64_t seed;
  std::function<std::unique_ptr<qkd::optics::Attack>()> attack;
  std::vector<Row> rows;  // one per consecutive batch
};

void check(const Case& c) {
  SCOPED_TRACE(c.name);
  QkdLinkConfig config;
  if (c.configure) c.configure(config);
  QkdLinkSession session(config, c.seed);
  const auto attack = c.attack ? c.attack() : nullptr;
  for (std::size_t i = 0; i < c.rows.size(); ++i) {
    const BatchResult batch = session.run_batch(attack.get());
    const std::string sha =
        to_hex(qkd::crypto::Sha1::hash(batch.key.to_bytes()));
    const Row got{batch.reason,          sha.c_str(),
               batch.sifted_bits,     batch.sampled_bits,
               batch.errors_corrected, batch.disclosed_bits,
               batch.control_messages, batch.control_bytes};
    const Row& want = c.rows[i];
    const bool same = got.reason == want.reason && sha == want.key_sha1 &&
                   got.sifted == want.sifted &&
                   got.sampled == want.sampled &&
                   got.corrected == want.corrected &&
                   got.disclosed == want.disclosed &&
                   got.messages == want.messages && got.bytes == want.bytes;
    EXPECT_TRUE(same) << "batch " << i << "\n  want " << describe(want)
                   << "\n  got  " << describe(got);
  }
}

auto at_km(double km, EcStrategy strategy) {
  return [km, strategy](QkdLinkConfig& config) {
    config.link.fiber_km = km;
    config.ec_strategy = strategy;
  };
}

// The SHA-1 of no bytes: the key of an aborted batch, or of an accepted
// one whose few distilled bits all went to replenish the pads.
constexpr const char* kNoKey = "da39a3ee5e6b4b0d3255bfef95601890afd80709";

using enum AbortReason;

const std::vector<Case>& clean_cases() {
  // One seed per distance; each corrector runs the same frames.
  static const std::vector<Case> cases = {
      {"10km-classic", at_km(10, EcStrategy::kClassicCascade), 2003, {},
       {{kNone, "0ba45d530998f6bf41b9b1fcb613d21c045ae14d",
         1614, 80, 90, 586, 98, 12820},
        {kNone, "f1572d96d86ff4f78a6fd10b49bbb1c290dc397d",
         1612, 80, 87, 598, 62, 12430},
        {kNone, "65fcb5d582fd92bbc71430706818151da8a11000",
         1570, 78, 103, 667, 42, 12683},
        {kNone, "3241eed71cd1a069597c2c0e9d306f2cac9b2c0f",
         1558, 77, 81, 641, 30, 12515}}},
      {"10km-bbn", at_km(10, EcStrategy::kBbnCascade), 2003, {},
       {{kNone, kNoKey, 1614, 80, 90, 997, 1750, 31733},
        {kNone, kNoKey, 1612, 80, 87, 960, 1676, 30611},
        {kEntropyExhausted, kNoKey, 1570, 78, 103, 1117, 1990, 34484},
        {kNone, kNoKey, 1558, 77, 81, 905, 1566, 29043}}},
      {"10km-naive", at_km(10, EcStrategy::kNaiveParity), 2003, {},
       {{kVerifyFailed, kNoKey, 1614, 80, 12, 96, 22, 7455},
        {kVerifyFailed, kNoKey, 1612, 80, 15, 114, 22, 7477},
        {kVerifyFailed, kNoKey, 1570, 78, 9, 78, 22, 6974},
        {kVerifyFailed, kNoKey, 1558, 77, 13, 102, 22, 7338}}},
      {"5km-classic", at_km(5, EcStrategy::kClassicCascade), 41, {},
       {{kNone, "f182a41b51d84dceb7f0f072da4731cafa4a0d9c",
         1968, 98, 107, 701, 54, 14669},
        {kNone, "d96e1e22a3f846513fa44475fe1b7e4ddb182f74",
         2018, 100, 100, 684, 46, 14532}}},
      {"5km-bbn", at_km(5, EcStrategy::kBbnCascade), 41, {},
       {{kNone, kNoKey, 1968, 98, 107, 1185, 2126, 38124},
        {kNone, "c703de0e35a06cb1532ded047068f21d33ba3900",
         2018, 100, 100, 1125, 2006, 36527}}},
      {"5km-naive", at_km(5, EcStrategy::kNaiveParity), 41, {},
       {{kVerifyFailed, kNoKey, 1968, 98, 15, 120, 22, 8791},
        {kVerifyFailed, kNoKey, 2018, 100, 18, 138, 22, 8986}}},
      {"20km-classic", at_km(20, EcStrategy::kClassicCascade), 43, {},
       {{kNone, "87d9a179a7d69168321a41d5f61f4b9f63787ec5",
         935, 46, 35, 287, 46, 7277},
        {kNone, kNoKey, 1055, 52, 62, 487, 30, 9109}}},
      {"20km-bbn", at_km(20, EcStrategy::kBbnCascade), 43, {},
       {{kNone, "bf8b4530d8d246dd74ac53a13471bba17941dff7",
         935, 46, 35, 439, 634, 13962},
        {kEntropyExhausted, kNoKey, 1055, 52, 62, 686, 1128, 20803}}},
      {"20km-naive", at_km(20, EcStrategy::kNaiveParity), 43, {},
       {{kVerifyFailed, kNoKey, 935, 46, 3, 32, 22, 4606},
        {kVerifyFailed, kNoKey, 1055, 52, 6, 52, 22, 5030}}},
  };
  return cases;
}

const std::vector<Case>& abort_cases() {
  // The forced aborts of abort_reasons_test.cpp, each from its own seed.
  static const std::vector<Case> cases = {
      {"50km-entropy", [](QkdLinkConfig& c) { c.link.fiber_km = 50.0; }, 6, {},
       {{kQberTooHigh, kNoKey, 238, 11, 27, 143, 48, 2842},
        {kEntropyExhausted, kNoKey, 240, 12, 19, 121, 38, 2686},
        {kVerifyFailed, kNoKey, 267, 13, 1, 14, 22, 1636},
        {kEntropyExhausted, kNoKey, 263, 13, 15, 112, 44, 2638},
        {kEntropyExhausted, kNoKey, 251, 12, 22, 131, 38, 2701},
        {kQberTooHigh, kNoKey, 248, 12, 28, 151, 52, 2969},
        {kVerifyFailed, kNoKey, 233, 11, 4, 36, 40, 1888},
        {kEntropyExhausted, kNoKey, 258, 12, 27, 179, 20, 2867}}},
      {"naive-verify", at_km(10, EcStrategy::kNaiveParity), 10, {},
       {{kVerifyFailed, kNoKey, 1590, 79, 16, 120, 22, 7641},
        {kVerifyFailed, kNoKey, 1576, 78, 12, 95, 22, 7279},
        {kVerifyFailed, kNoKey, 1511, 75, 12, 95, 22, 7115},
        {kVerifyFailed, kNoKey, 1546, 77, 15, 113, 22, 7395},
        {kVerifyFailed, kNoKey, 1662, 83, 10, 85, 22, 7410}}},
      {"tiny-pad",
       [](QkdLinkConfig& c) {
         c.frame_slots = 1 << 16;
         c.preposition_extra_bits = 0;
       },
       1, {},
       {{kAuthExhausted, kNoKey, 100, 5, 0, 0, 3, 455},
        {kAuthExhausted, kNoKey, 0, 0, 0, 0, 1, 9}}},
      {"cut-channel",
       [](QkdLinkConfig& c) {
         c.frame_slots = 1 << 16;
         c.link.dark_count_prob = 0.0;
       },
       7, [] { return std::make_unique<qkd::optics::ChannelCutAttack>(); },
       {{kNoSiftedBits, kNoKey, 0, 0, 0, 0, 3, 57}}},
      {"intercept-resend", {}, 5,
       [] { return std::make_unique<qkd::optics::InterceptResendAttack>(1.0); },
       {{kQberTooHigh, kNoKey, 1489, 74, 0, 0, 5, 6070}}},
      {"bbn-one-round",
       [](QkdLinkConfig& c) {
         c.ec_strategy = EcStrategy::kBbnCascade;
         c.bbn_config.max_rounds = 1;
       },
       16, {},
       {{kEcNotConverged, kNoKey, 1547, 77, 79, 826, 1532, 27744}}},
  };
  return cases;
}

TEST(Transcript, CleanChannelBatchesMatchThePinnedRows) {
  for (const Case& c : clean_cases()) check(c);
}

TEST(Transcript, ForcedAbortsMatchThePinnedRows) {
  for (const Case& c : abort_cases()) check(c);
}

}  // namespace
}  // namespace qkd::proto
