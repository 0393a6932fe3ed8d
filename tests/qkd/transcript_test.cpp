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
       {{kNone, "2e1cf4b371c7c35dfb104fa3cf7978a8e701ae5c",
         1614, 80, 90, 568, 110, 12787},
        {kNone, "de143f6e9bc7e99187a95172c458deaa1395c857",
         1612, 80, 88, 576, 72, 12364},
        {kNone, "2c291b01f51816ffb24eaed8a5cb951ae07b9ec4",
         1570, 78, 100, 755, 38, 13404},
        {kNone, "125fbdc2222e66547d3f6e3658b6b9bae0aa2068",
         1558, 77, 86, 563, 98, 12462}}},
      {"10km-bbn", at_km(10, EcStrategy::kBbnCascade), 2003, {},
       {{kNone, kNoKey, 1614, 80, 90, 991, 1738, 31537},
        {kNone, kNoKey, 1612, 80, 87, 961, 1678, 30621},
        {kEntropyExhausted, kNoKey, 1570, 78, 104, 1136, 2028, 35018},
        {kNone, kNoKey, 1558, 77, 86, 947, 1650, 30216}}},
      {"10km-naive", at_km(10, EcStrategy::kNaiveParity), 2003, {},
       {{kVerifyFailed, kNoKey, 1614, 80, 16, 120, 22, 7671},
        {kVerifyFailed, kNoKey, 1612, 80, 14, 108, 22, 7423},
        {kVerifyFailed, kNoKey, 1570, 78, 12, 95, 22, 7127},
        {kVerifyFailed, kNoKey, 1558, 77, 10, 84, 22, 7164}}},
      {"5km-classic", at_km(5, EcStrategy::kClassicCascade), 41, {},
       {{kNone, "966967149080cd3e29a8cd0f4d2e5c041b56a9c2",
         1968, 98, 109, 685, 118, 15127},
        {kNone, "5eae17fc3769185b8f13bc7b8f67468bd9c15f0e",
         2018, 100, 100, 705, 58, 14794}}},
      {"5km-bbn", at_km(5, EcStrategy::kBbnCascade), 41, {},
       {{kNone, kNoKey, 1968, 98, 109, 1202, 2160, 38610},
        {kNone, "09f01d2b8034fb24e492301abd8272f86ed459bb",
         2018, 100, 99, 1113, 1982, 36217}}},
      {"5km-naive", at_km(5, EcStrategy::kNaiveParity), 41, {},
       {{kVerifyFailed, kNoKey, 1968, 98, 19, 142, 22, 8971},
        {kVerifyFailed, kNoKey, 2018, 100, 13, 108, 22, 8722}}},
      {"20km-classic", at_km(20, EcStrategy::kClassicCascade), 43, {},
       {{kNone, "9d659a098a1a47f84aaa9b747439b4043f09e33f",
         935, 46, 37, 249, 76, 7236},
        {kNone, "e0c4134068c5034d8e49cdb7592791774d4b43c4",
         1055, 52, 65, 417, 64, 8854}}},
      {"20km-bbn", at_km(20, EcStrategy::kBbnCascade), 43, {},
       {{kNone, kNoKey, 935, 46, 37, 456, 668, 14428},
        {kEntropyExhausted, kNoKey, 1055, 52, 63, 695, 1146, 21073}}},
      {"20km-naive", at_km(20, EcStrategy::kNaiveParity), 43, {},
       {{kVerifyFailed, kNoKey, 935, 46, 7, 56, 22, 4822},
        {kVerifyFailed, kNoKey, 1055, 52, 8, 63, 22, 5117}}},
  };
  return cases;
}

const std::vector<Case>& abort_cases() {
  // The forced aborts of abort_reasons_test.cpp, each from its own seed.
  static const std::vector<Case> cases = {
      {"50km-entropy", [](QkdLinkConfig& c) { c.link.fiber_km = 50.0; }, 6, {},
       {{kQberTooHigh, kNoKey, 238, 11, 27, 151, 62, 3048},
        {kVerifyFailed, kNoKey, 240, 12, 4, 35, 38, 1994},
        {kEntropyExhausted, kNoKey, 267, 13, 17, 154, 14, 2697},
        {kVerifyFailed, kNoKey, 263, 13, 4, 32, 36, 1920},
        {kEntropyExhausted, kNoKey, 251, 12, 22, 129, 30, 2583},
        {kQberTooHigh, kNoKey, 248, 12, 27, 176, 32, 2965},
        {kEntropyExhausted, kNoKey, 233, 11, 15, 107, 36, 2417},
        {kQberTooHigh, kNoKey, 258, 12, 28, 154, 40, 2868}}},
      {"naive-verify", at_km(10, EcStrategy::kNaiveParity), 10, {},
       {{kVerifyFailed, kNoKey, 1590, 79, 13, 102, 22, 7467},
        {kVerifyFailed, kNoKey, 1576, 78, 18, 131, 22, 7597},
        {kVerifyFailed, kNoKey, 1511, 75, 13, 101, 22, 7169},
        {kVerifyFailed, kNoKey, 1546, 77, 11, 89, 22, 7179},
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
       {{kEcNotConverged, kNoKey, 1547, 77, 83, 861, 1602, 28722}}},
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
