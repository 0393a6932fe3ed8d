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
       {{kNone, "d3d2f7f26e2fdfd7e7c76bb16778efb1a8ece22b",
         1630, 81, 101, 637, 98, 13131},
        {kNone, "cf199f3451742e5095143cbde0ace4697241882b",
         1535, 76, 77, 539, 44, 11693},
        {kNone, "770d690d201796a556d33b1ac0fa8e377c061c4c",
         1662, 83, 89, 599, 46, 12537},
        {kNone, "128923eaedc4d2aae7b3382c0bc68ee828a4bc96",
         1543, 77, 88, 586, 54, 12271}}},
      {"10km-bbn", at_km(10, EcStrategy::kBbnCascade), 2003, {},
       {{kEntropyExhausted, kNoKey, 1630, 81, 101, 1099, 1954, 34065},
        {kNone, kNoKey, 1535, 76, 77, 863, 1482, 27854},
        {kNone, kNoKey, 1662, 83, 89, 997, 1750, 31925},
        {kNone, kNoKey, 1543, 77, 88, 981, 1718, 31148}}},
      {"10km-naive", at_km(10, EcStrategy::kNaiveParity), 2003, {},
       {{kVerifyFailed, kNoKey, 1630, 81, 7, 67, 22, 7017},
        {kVerifyFailed, kNoKey, 1535, 76, 11, 89, 22, 7199},
        {kVerifyFailed, kNoKey, 1662, 83, 11, 91, 22, 7412},
        {kVerifyFailed, kNoKey, 1543, 77, 8, 71, 22, 7094}}},
      {"5km-classic", at_km(5, EcStrategy::kClassicCascade), 41, {},
       {{kNone, "ce061564c819402694073517de2b3c1cc01ae448",
         2011, 100, 124, 777, 118, 16024},
        {kNone, "905b28498f0e1022819d3b5934c5bce52143d888",
         2033, 101, 101, 713, 50, 14817}}},
      {"5km-bbn", at_km(5, EcStrategy::kBbnCascade), 41, {},
       {{kEntropyExhausted, kNoKey, 2011, 100, 124, 1358, 2472, 42722},
        {kNone, "cba35c009f2d1c36c062233c1d7528780ab9e822",
         2033, 101, 101, 1136, 2028, 36844}}},
      {"5km-naive", at_km(5, EcStrategy::kNaiveParity), 41, {},
       {{kVerifyFailed, kNoKey, 2011, 100, 20, 150, 22, 9151},
        {kVerifyFailed, kNoKey, 2033, 101, 17, 133, 22, 8951}}},
      {"20km-classic", at_km(20, EcStrategy::kClassicCascade), 43, {},
       {{kNone, kNoKey, 1040, 52, 71, 515, 444, 13214},
        {kNone, "62fb5cb3df2ed6efd7285ef7f2710e644435a1e6",
         998, 49, 54, 392, 40, 8319}}},
      {"20km-bbn", at_km(20, EcStrategy::kBbnCascade), 43, {},
       {{kEntropyExhausted, kNoKey, 1040, 52, 71, 762, 1280, 22786},
        {kNone, kNoKey, 998, 49, 54, 608, 972, 18700}}},
      {"20km-naive", at_km(20, EcStrategy::kNaiveParity), 43, {},
       {{kVerifyFailed, kNoKey, 1040, 52, 7, 57, 22, 5015},
        {kVerifyFailed, kNoKey, 998, 49, 4, 38, 22, 4817}}},
  };
  return cases;
}

const std::vector<Case>& abort_cases() {
  // The forced aborts of abort_reasons_test.cpp, each from its own seed.
  static const std::vector<Case> cases = {
      {"50km-entropy", [](QkdLinkConfig& c) { c.link.fiber_km = 50.0; }, 6, {},
       {{kEntropyExhausted, kNoKey, 240, 12, 11, 131, 14, 2422},
        {kEntropyExhausted, kNoKey, 255, 12, 21, 124, 46, 2691},
        {kEntropyExhausted, kNoKey, 243, 12, 25, 150, 86, 3288},
        {kEntropyExhausted, kNoKey, 260, 13, 18, 119, 30, 2481},
        {kEntropyExhausted, kNoKey, 259, 12, 18, 119, 46, 2667},
        {kEntropyExhausted, kNoKey, 254, 12, 19, 120, 44, 2672},
        {kNone, kNoKey, 281, 14, 15, 108, 26, 2551},
        {kNone, kNoKey, 249, 12, 13, 98, 26, 2348}}},
      {"naive-verify", at_km(10, EcStrategy::kNaiveParity), 10, {},
       {{kVerifyFailed, kNoKey, 1546, 77, 15, 113, 22, 7293},
        {kVerifyFailed, kNoKey, 1556, 77, 13, 99, 22, 7264},
        {kVerifyFailed, kNoKey, 1553, 77, 15, 114, 22, 7436},
        {kVerifyFailed, kNoKey, 1613, 80, 16, 120, 22, 7649},
        {kVerifyFailed, kNoKey, 1598, 79, 14, 108, 22, 7421}}},
      {"tiny-pad",
       [](QkdLinkConfig& c) {
         c.frame_slots = 1 << 16;
         c.preposition_extra_bits = 0;
       },
       1, {},
       {{kAuthExhausted, kNoKey, 100, 5, 0, 0, 3, 448},
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
       {{kQberTooHigh, kNoKey, 1559, 77, 0, 0, 5, 6208}}},
      {"bbn-one-round",
       [](QkdLinkConfig& c) {
         c.ec_strategy = EcStrategy::kBbnCascade;
         c.bbn_config.max_rounds = 1;
       },
       16, {},
       {{kEcNotConverged, kNoKey, 1548, 77, 102, 1047, 1974, 33932}}},
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
