// Each crypto kernel with a hardware path, held equal to its portable
// kernel on random inputs. The portable kernels are the fallback on CPUs
// without the instructions and the oracle here; they are checked against
// bitwise definitions and published vectors in their own suites.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/bytes.hpp"
#include "src/crypto/aes.hpp"
#include "src/crypto/cpu.hpp"
#include "src/crypto/gf2n.hpp"
#include "src/crypto/sha1.hpp"
#include "src/crypto/universal_hash.hpp"

namespace qkd::crypto {
namespace {

#if defined(__x86_64__)
#define SKIP_WITHOUT(probe, name)                                    \
  if (!detail::probe())                                              \
  GTEST_SKIP() << "this CPU has no " name                            \
               ", so only the portable kernel runs here"
#else
#define SKIP_WITHOUT(probe, name) \
  GTEST_SKIP() << "no hardware kernel on this target"
#endif

Bytes random_bytes(qkd::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(KernelIdentity, ToeplitzPclmulMatchesPortable) {
  SKIP_WITHOUT(cpu_has_pclmul, "PCLMULQDQ");
#if defined(__x86_64__)
  // Lengths at and beside word edges, the sift announce (46,128 bits) and
  // 2^17. A key of exactly tag_bits + msg_bits - 1 bits often ends in the
  // message's last word, so that word's successor lies past the key's end;
  // 70 extra bits put a real word there, whose bits must not leak in.
  QKD_SEEDED_RNG(rng, 20);
  for (std::size_t msg_bits :
       {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u, 46128u, 1u << 17}) {
    for (unsigned tag_bits : {1u, 17u, 32u, 63u, 64u, 65u, 128u}) {
      for (std::size_t extra : {0u, 70u}) {
        SCOPED_TRACE("msg_bits=" + std::to_string(msg_bits) +
                     " tag_bits=" + std::to_string(tag_bits) +
                     " extra=" + std::to_string(extra));
        const auto key = rng.next_bits(tag_bits + msg_bits - 1 + extra);
        const auto message = rng.next_bits(msg_bits);
        EXPECT_EQ(detail::toeplitz_hash_pclmul(key, message, tag_bits),
                  detail::toeplitz_hash_portable(key, message, tag_bits));
      }
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t msg_bits = 1 + rng.next_below(1u << 12);
    const unsigned tag_bits = 1 + static_cast<unsigned>(rng.next_below(192));
    const auto key =
        rng.next_bits(tag_bits + msg_bits - 1 + rng.next_below(130));
    const auto message = rng.next_bits(msg_bits);
    EXPECT_EQ(detail::toeplitz_hash_pclmul(key, message, tag_bits),
              detail::toeplitz_hash_portable(key, message, tag_bits))
        << "msg_bits=" << msg_bits << " tag_bits=" << tag_bits;
  }
#endif
}

TEST(KernelIdentity, ClmulPclmulMatchesPortable) {
  SKIP_WITHOUT(cpu_has_pclmul, "PCLMULQDQ");
#if defined(__x86_64__)
  // Odd and even word counts on either side, ragged last words, and the
  // widest field the stack builds.
  QKD_SEEDED_RNG(rng, 21);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1},      {1, 64},     {64, 1},      {63, 65},    {64, 64},
      {65, 127},   {128, 129},  {192, 64},    {200, 3000}, {1535, 1536},
      {1536, 1536}, {4096, 4095}, {4095, 4096}};
  for (const auto& [a_bits, b_bits] : shapes) {
    const auto a = rng.next_bits(a_bits);
    const auto b = rng.next_bits(b_bits);
    EXPECT_EQ(detail::clmul_pclmul(a, b), detail::clmul_portable(a, b))
        << a_bits << " x " << b_bits;
  }
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = rng.next_bits(1 + rng.next_below(4096));
    const auto b = rng.next_bits(1 + rng.next_below(4096));
    EXPECT_EQ(detail::clmul_pclmul(a, b), detail::clmul_portable(a, b))
        << a.size() << " x " << b.size();
  }
  EXPECT_TRUE(detail::clmul_pclmul(qkd::BitVector(), rng.next_bits(5)).empty());
#endif
}

TEST(KernelIdentity, Sha1ShaNiMatchesPortable) {
  SKIP_WITHOUT(cpu_has_sha_ni, "SHA-NI");
#if defined(__x86_64__)
  // Random states as well as random blocks: a chained block starts from
  // whatever the last one left.
  QKD_SEEDED_RNG(rng, 22);
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<std::uint32_t, 5> state;
    for (auto& word : state) word = rng.next_u32();
    const Bytes block = random_bytes(rng, 64);
    auto portable = state;
    detail::sha1_compress_portable(portable, block.data());
    detail::sha1_compress_sha_ni(state, block.data());
    EXPECT_EQ(state, portable) << "trial " << trial;
  }
#endif
}

TEST(KernelIdentity, AesNiMatchesPortable) {
  SKIP_WITHOUT(cpu_has_aes, "AES-NI");
#if defined(__x86_64__)
  // Random keys of each length and random blocks through both kernels,
  // then CBC, which the public API runs on AES-NI here, against CBC chained
  // from the portable kernel.
  QKD_SEEDED_RNG(rng, 24);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    for (int k = 0; k < 20; ++k) {
      const Aes aes(random_bytes(rng, key_len));
      for (int trial = 0; trial < 50; ++trial) {
        const Bytes in = random_bytes(rng, 16);
        Bytes hw(16), portable(16);
        detail::aes_encrypt_aes_ni(aes.schedule(), in.data(), hw.data());
        detail::aes_encrypt_portable(aes.schedule(), in.data(),
                                     portable.data());
        EXPECT_EQ(hw, portable) << "encrypt, key_len=" << key_len;
        detail::aes_decrypt_aes_ni(aes.schedule(), in.data(), hw.data());
        detail::aes_decrypt_portable(aes.schedule(), in.data(),
                                     portable.data());
        EXPECT_EQ(hw, portable) << "decrypt, key_len=" << key_len;
      }
    }
  }
  for (std::size_t blocks = 1; blocks <= 64; ++blocks) {
    const std::size_t key_len = 16 + 8 * (blocks % 3);
    const Aes aes(random_bytes(rng, key_len));
    Aes::Block iv;
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next_u32());
    const Bytes plain = random_bytes(rng, 16 * blocks);
    const Bytes cipher = detail::aes_cbc_encrypt(detail::aes_encrypt_portable,
                                                 aes.schedule(), iv, plain);
    EXPECT_EQ(aes_cbc_encrypt(aes, iv, plain), cipher) << blocks << " blocks";
    EXPECT_EQ(aes_cbc_decrypt(aes, iv, cipher), plain) << blocks << " blocks";
    EXPECT_EQ(detail::aes_cbc_decrypt(detail::aes_decrypt_portable,
                                      aes.schedule(), iv, cipher),
              plain)
        << blocks << " blocks";
  }
#endif
}

TEST(KernelIdentity, Sha1StreamingMatchesOneShotAtEveryLength) {
  // Lengths 0..55 take the one-block path in Sha1::hash; streaming in two
  // uneven pieces goes through the buffer at every length.
  QKD_SEEDED_RNG(rng, 23);
  for (std::size_t len = 0; len <= 200; ++len) {
    const Bytes data = random_bytes(rng, len);
    const std::size_t cut = len == 0 ? 0 : rng.next_below(len + 1);
    Sha1 streamed;
    streamed.update(std::span<const std::uint8_t>(data.data(), cut));
    streamed.update(std::span<const std::uint8_t>(data.data() + cut, len - cut));
    EXPECT_EQ(streamed.finish(), Sha1::hash(data)) << "len=" << len;
  }
}

}  // namespace
}  // namespace qkd::crypto
