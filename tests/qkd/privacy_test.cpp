#include "src/qkd/privacy.hpp"

#include <gtest/gtest.h>


#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::proto {
namespace {

TEST(PaParams, RoundUpTo32) {
  EXPECT_EQ(round_up_to_32(1), 32u);
  EXPECT_EQ(round_up_to_32(32), 32u);
  EXPECT_EQ(round_up_to_32(33), 64u);
  EXPECT_EQ(round_up_to_32(1000), 1024u);
}

TEST(PaParams, MakeChoosesAnnouncedShape) {
  qkd::crypto::Drbg drbg(1u);
  const wire::PaParamsPacket p = make_pa_params(1000, 700, drbg);
  EXPECT_EQ(p.n, 1024u);
  EXPECT_EQ(p.m, 700u);
  EXPECT_EQ(p.modulus_exponents, qkd::crypto::irreducible_poly(1024).exponents);
  EXPECT_EQ(p.multiplier.size(), 1024u);
  EXPECT_EQ(p.addend.size(), 700u);
}

TEST(PaParams, SerializationRoundTrips) {
  // The parameters are drawn as the packet that announces them: at every
  // ladder width the strict decoder accepts it and gives back every field.
  qkd::crypto::Drbg drbg(2u);
  for (std::size_t input : {32u, 500u, 1380u, 4096u}) {
    const wire::PaParamsPacket packet =
        make_pa_params(input, input * 3 / 5, drbg);
    const auto decoded = wire::PaParamsPacket::decode(packet.encode());
    ASSERT_TRUE(decoded.ok()) << input;
    EXPECT_EQ(decoded.value, packet);
  }
}

TEST(PaParams, RejectsExpansion) {
  qkd::crypto::Drbg drbg(4u);
  EXPECT_THROW(make_pa_params(100, 101, drbg), std::invalid_argument);
  EXPECT_THROW(make_pa_params(0, 0, drbg), std::invalid_argument);
}

TEST(PrivacyAmplify, IdenticalInputsYieldIdenticalOutputs) {
  QKD_SEEDED_RNG(rng, 5);
  qkd::crypto::Drbg drbg(5u);
  for (std::size_t n : {33u, 500u, 1000u, 4000u}) {
    const auto input = rng.next_bits(n);
    const wire::PaParamsPacket p = make_pa_params(n, n / 2, drbg);
    EXPECT_EQ(privacy_amplify(input, p), privacy_amplify(input, p));
  }
}

TEST(PrivacyAmplify, KnownAnswers) {
  // Captured from the bit-serial multiply: the hash is half of a lockstep
  // protocol, so its output bits may not move. Fixed seeds, not
  // QKD_SEEDED_RNG: a replay seed must not change a known answer.
  qkd::Rng rng(2026);
  qkd::crypto::Drbg drbg(2026u);
  const auto amplify_hex = [&](std::size_t input_bits, std::size_t m) {
    const auto input = rng.next_bits(input_bits);
    const wire::PaParamsPacket p = make_pa_params(input_bits, m, drbg);
    return to_hex(privacy_amplify(input, p).to_bytes());
  };
  EXPECT_EQ(amplify_hex(100, 96), "6d54fc07cb20b6b11cc4b632");
  EXPECT_EQ(amplify_hex(1380, 160),
            "4c542d56e4c2fad34094337ed8f1f07af3e6348e");
  EXPECT_EQ(amplify_hex(4000, 320),
            "63f7540370a6c8e68b6504e9d48aafec68ebfda11fb149410fb4dd8feced00e8"
            "93b22c23fb8c8649");
}

TEST(PrivacyAmplify, OutputHasRequestedLength) {
  QKD_SEEDED_RNG(rng, 6);
  qkd::crypto::Drbg drbg(6u);
  const auto input = rng.next_bits(777);
  const wire::PaParamsPacket p = make_pa_params(777, 123, drbg);
  EXPECT_EQ(privacy_amplify(input, p).size(), 123u);
}

TEST(PrivacyAmplify, SingleBitInputDifferenceAvalanche) {
  // A one-bit input difference must produce an unpredictable output
  // difference — roughly half the output bits flip on average.
  QKD_SEEDED_RNG(rng, 7);
  qkd::crypto::Drbg drbg(7u);
  const std::size_t n = 2048, m = 1024;
  double total_flips = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const wire::PaParamsPacket p = make_pa_params(n, m, drbg);
    const auto a = rng.next_bits(n);
    auto b = a;
    b.flip(rng.next_below(n));
    total_flips += static_cast<double>(
        privacy_amplify(a, p).hamming_distance(privacy_amplify(b, p)));
  }
  const double mean_flips = total_flips / trials;
  EXPECT_GT(mean_flips, 0.4 * m);
  EXPECT_LT(mean_flips, 0.6 * m);
}

TEST(PrivacyAmplify, DifferentMultipliersDecorrelateOutputs) {
  QKD_SEEDED_RNG(rng, 8);
  qkd::crypto::Drbg drbg(8u);
  const auto input = rng.next_bits(512);
  const wire::PaParamsPacket p1 = make_pa_params(512, 256, drbg);
  const wire::PaParamsPacket p2 = make_pa_params(512, 256, drbg);
  const auto o1 = privacy_amplify(input, p1);
  const auto o2 = privacy_amplify(input, p2);
  const double flips = static_cast<double>(o1.hamming_distance(o2));
  EXPECT_GT(flips, 0.3 * 256);
}

TEST(PrivacyAmplify, IsLinearOverGf2) {
  // h(x ^ y) ^ h(0) == h(x) ^ h(y): the hash is affine (multiply + add).
  QKD_SEEDED_RNG(rng, 9);
  qkd::crypto::Drbg drbg(9u);
  const std::size_t n = 256, m = 100;
  const wire::PaParamsPacket p = make_pa_params(n, m, drbg);
  const auto x = rng.next_bits(n);
  const auto y = rng.next_bits(n);
  const auto zero = qkd::BitVector(n);
  const auto lhs =
      privacy_amplify(x ^ y, p) ^ privacy_amplify(zero, p);
  const auto rhs = privacy_amplify(x, p) ^ privacy_amplify(y, p);
  EXPECT_EQ(lhs, rhs);
}

TEST(PrivacyAmplify, ShortInputIsZeroPaddedToFieldWidth) {
  qkd::crypto::Drbg drbg(10u);
  const wire::PaParamsPacket p = make_pa_params(40, 20, drbg);  // field width 64
  qkd::BitVector short_input = qkd::BitVector::from_string("101");
  EXPECT_NO_THROW(privacy_amplify(short_input, p));
  qkd::BitVector wide_input(p.n + 1);
  EXPECT_THROW(privacy_amplify(wide_input, p), std::invalid_argument);
}

TEST(PrivacyAmplify, CollisionRateIsUniversal) {
  // For random multipliers, two fixed distinct inputs collide with
  // probability ~ 2^-m. With m = 8 expect ~ trials/256 collisions.
  QKD_SEEDED_RNG(rng, 11);
  qkd::crypto::Drbg drbg(11u);
  const std::size_t n = 64;
  const auto x = rng.next_bits(n);
  auto y = x;
  y.flip(3);
  int collisions = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const wire::PaParamsPacket p = make_pa_params(n, 8, drbg);
    collisions += privacy_amplify(x, p) == privacy_amplify(y, p);
  }
  EXPECT_LT(collisions, 30);  // mean ~7.8
}

}  // namespace
}  // namespace qkd::proto
