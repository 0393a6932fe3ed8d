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
       {{kNone, "1cbf87108892c8b3f0401a51f0924caf7527225b",
         1630, 81, 101, 637, 100, 13461},
        {kNone, "224a8ea4302729ac21d6f7088513d13f3f1a7bb7",
         1535, 76, 77, 539, 46, 11807},
        {kNone, "ba8ea0192c7dedb0e0256979bbf90051afa9f2d9",
         1662, 83, 89, 599, 48, 12659},
        {kNone, "456c985ecde863c4ac6450d48b53f83ef2ee4788",
         1543, 77, 88, 586, 56, 12425}}},
      {"10km-bbn", at_km(10, EcStrategy::kBbnCascade), 2003, {},
       {{kEntropyExhausted, kNoKey, 1630, 81, 101, 1099, 1954, 41797},
        {kNone, "9f94b960064686d829f4a2fd155e7855542ca9d0",
         1535, 76, 77, 863, 1484, 33720},
        {kNone, "89e436311f5cacc1bb2ce06558d4d2b1f14a29ed",
         1662, 83, 89, 997, 1752, 38863},
        {kNone, kNoKey, 1543, 77, 88, 981, 1720, 37958}}},
      {"10km-naive", at_km(10, EcStrategy::kNaiveParity), 2003, {},
       {{kVerifyFailed, kNoKey, 1630, 81, 7, 67, 22, 7021},
        {kVerifyFailed, kNoKey, 1535, 76, 11, 89, 22, 7203},
        {kVerifyFailed, kNoKey, 1662, 83, 11, 91, 22, 7416},
        {kVerifyFailed, kNoKey, 1543, 77, 8, 71, 22, 7098}}},
      {"5km-classic", at_km(5, EcStrategy::kClassicCascade), 41, {},
       {{kNone, "07d97e0eb26abaa4cfe283de2a9ca68054ca30f2",
         2011, 100, 124, 777, 120, 16434},
        {kNone, "6d040f3d5599623271eb3a0df6760638fe9db182",
         2033, 101, 101, 713, 52, 14955}}},
      {"5km-bbn", at_km(5, EcStrategy::kBbnCascade), 41, {},
       {{kEntropyExhausted, kNoKey, 2011, 100, 124, 1358, 2472, 52526},
        {kNone, "11477f6625fc6901b825fdcbde72b8065af9c029",
         2033, 101, 101, 1136, 2030, 44894}}},
      {"5km-naive", at_km(5, EcStrategy::kNaiveParity), 41, {},
       {{kVerifyFailed, kNoKey, 2011, 100, 20, 150, 22, 9155},
        {kVerifyFailed, kNoKey, 2033, 101, 17, 133, 22, 8955}}},
      {"20km-classic", at_km(20, EcStrategy::kClassicCascade), 43, {},
       {{kNone, "c14178345f9a27af2a6e61aaf8c1d0e891e2eb44",
         1040, 52, 71, 515, 446, 14928},
        {kNone, "41d2c45ba390d7d906913a0aa3a42a4dea4d05db",
         998, 49, 54, 392, 42, 8417}}},
      {"20km-bbn", at_km(20, EcStrategy::kBbnCascade), 43, {},
       {{kEntropyExhausted, kNoKey, 1040, 52, 71, 762, 1280, 27822},
        {kNone, kNoKey, 998, 49, 54, 608, 974, 22526}}},
      {"20km-naive", at_km(20, EcStrategy::kNaiveParity), 43, {},
       {{kVerifyFailed, kNoKey, 1040, 52, 7, 57, 22, 5019},
        {kVerifyFailed, kNoKey, 998, 49, 4, 38, 22, 4821}}},
  };
  return cases;
}

const std::vector<Case>& abort_cases() {
  // The forced aborts of abort_reasons_test.cpp, each from its own seed.
  static const std::vector<Case> cases = {
      {"50km-entropy", [](QkdLinkConfig& c) { c.link.fiber_km = 50.0; }, 6, {},
       {{kEntropyExhausted, kNoKey, 240, 12, 11, 131, 14, 2394},
        {kEntropyExhausted, kNoKey, 255, 12, 21, 124, 46, 2791},
        {kEntropyExhausted, kNoKey, 243, 12, 25, 150, 86, 3548},
        {kEntropyExhausted, kNoKey, 260, 13, 18, 119, 30, 2517},
        {kEntropyExhausted, kNoKey, 259, 12, 18, 119, 46, 2767},
        {kEntropyExhausted, kNoKey, 254, 12, 19, 120, 44, 2764},
        {kNone, kNoKey, 281, 14, 15, 108, 28, 2593},
        {kNone, kNoKey, 249, 12, 13, 98, 28, 2390}}},
      {"naive-verify", at_km(10, EcStrategy::kNaiveParity), 10, {},
       {{kVerifyFailed, kNoKey, 1546, 77, 15, 113, 22, 7297},
        {kVerifyFailed, kNoKey, 1556, 77, 13, 99, 22, 7268},
        {kVerifyFailed, kNoKey, 1553, 77, 15, 114, 22, 7440},
        {kVerifyFailed, kNoKey, 1613, 80, 16, 120, 22, 7653},
        {kVerifyFailed, kNoKey, 1598, 79, 14, 108, 22, 7425}}},
      {"tiny-pad",
       [](QkdLinkConfig& c) {
         c.frame_slots = 1 << 16;
         c.preposition_extra_bits = 0;
       },
       1, {},
       {{kAuthExhausted, kNoKey, 0, 0, 0, 0, 1, 13},
        {kAuthExhausted, kNoKey, 0, 0, 0, 0, 1, 13}}},
      {"cut-channel",
       [](QkdLinkConfig& c) {
         c.frame_slots = 1 << 16;
         c.link.dark_count_prob = 0.0;
       },
       7, [] { return std::make_unique<qkd::optics::ChannelCutAttack>(); },
       {{kNoSiftedBits, kNoKey, 0, 0, 0, 0, 3, 45}}},
      {"intercept-resend", {}, 5,
       [] { return std::make_unique<qkd::optics::InterceptResendAttack>(1.0); },
       {{kQberTooHigh, kNoKey, 1559, 77, 0, 0, 5, 6180}}},
      {"bbn-one-round",
       [](QkdLinkConfig& c) {
         c.ec_strategy = EcStrategy::kBbnCascade;
         c.bbn_config.max_rounds = 1;
       },
       16, {},
       {{kEcNotConverged, kNoKey, 1548, 77, 102, 1047, 1974, 41768}}},
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
