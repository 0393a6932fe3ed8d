#include "src/crypto/aes.hpp"

#include <gtest/gtest.h>

#include "tests/testing/seeded_rng.hpp"

#include "src/common/rng.hpp"

namespace qkd::crypto {
namespace {

// FIPS 197 Appendix C vectors: plaintext 00112233445566778899aabbccddeeff.
const Bytes kPlain = from_hex("00112233445566778899aabbccddeeff");

// The public API runs AES-NI where CPUID reports it, so the vectors also run
// through the portable kernel by name: it is the fallback and the oracle.
TEST(AesPortable, Fips197Vectors) {
  const struct {
    const char* key;
    const char* cipher;
  } vectors[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& v : vectors) {
    const Aes aes(from_hex(v.key));
    Bytes out(16);
    detail::aes_encrypt_portable(aes.schedule(), kPlain.data(), out.data());
    EXPECT_EQ(to_hex(out), v.cipher) << v.key;
    Bytes back(16);
    detail::aes_decrypt_portable(aes.schedule(), out.data(), back.data());
    EXPECT_EQ(back, kPlain) << v.key;
  }
}

TEST(AesPortable, NistSp800_38aCbcVector) {
  // NIST SP 800-38A F.2.1 and F.2.2 (CBC-AES128), all four blocks.
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Aes::Block iv;
  const Bytes iv_bytes = from_hex("000102030405060708090a0b0c0d0e0f");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  const Bytes plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes cipher = detail::aes_cbc_encrypt(detail::aes_encrypt_portable,
                                               aes.schedule(), iv, plain);
  EXPECT_EQ(to_hex(cipher),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7");
  EXPECT_EQ(detail::aes_cbc_decrypt(detail::aes_decrypt_portable,
                                    aes.schedule(), iv, cipher),
            plain);
}

TEST(Aes, Fips197Aes128) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes out(16);
  aes.encrypt_block(kPlain.data(), out.data());
  EXPECT_EQ(to_hex(out), "69c4e0d86a7b0430d8cdb78070b4c55a");
  Bytes back(16);
  aes.decrypt_block(out.data(), back.data());
  EXPECT_EQ(back, kPlain);
}

TEST(Aes, Fips197Aes192) {
  const Aes aes(from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  Bytes out(16);
  aes.encrypt_block(kPlain.data(), out.data());
  EXPECT_EQ(to_hex(out), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Bytes out(16);
  aes.encrypt_block(kPlain.data(), out.data());
  EXPECT_EQ(to_hex(out), "8ea2b7ca516745bfeafc49904b496089");
  Bytes back(16);
  aes.decrypt_block(out.data(), back.data());
  EXPECT_EQ(back, kPlain);
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33)), std::invalid_argument);
}

TEST(Aes, EncryptDecryptRoundTripRandomKeys) {
  QKD_SEEDED_RNG(rng, 1234);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    const Aes aes(key);
    for (int i = 0; i < 50; ++i) {
      Aes::Block block;
      for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_u64());
      EXPECT_EQ(aes.decrypt_block(aes.encrypt_block(block)), block);
    }
  }
}

TEST(AesCbc, NistSp800_38aVector) {
  // NIST SP 800-38A F.2.1 (CBC-AES128), first two blocks.
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Aes::Block iv;
  const Bytes iv_bytes = from_hex("000102030405060708090a0b0c0d0e0f");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  const Bytes plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const Bytes cipher = aes_cbc_encrypt(aes, iv, plain);
  EXPECT_EQ(to_hex(cipher),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2");
  EXPECT_EQ(aes_cbc_decrypt(aes, iv, cipher), plain);
}

TEST(AesCbc, RejectsPartialBlocks) {
  const Aes aes(Bytes(16, 0));
  Aes::Block iv{};
  EXPECT_THROW(aes_cbc_encrypt(aes, iv, Bytes(15)), std::invalid_argument);
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, Bytes(17)), std::invalid_argument);
}

TEST(AesCbc, TamperedCiphertextChangesPlaintext) {
  QKD_SEEDED_RNG(rng, 99);
  Bytes key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  const Aes aes(key);
  Aes::Block iv{};
  Bytes plain(64, 0x41);
  Bytes cipher = aes_cbc_encrypt(aes, iv, plain);
  cipher[20] ^= 0x01;
  EXPECT_NE(aes_cbc_decrypt(aes, iv, cipher), plain);
}

TEST(AesCtr, NistSp800_38aVector) {
  // NIST SP 800-38A F.5.1 (CTR-AES128), first block.
  const Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Aes::Block ctr;
  const Bytes ctr_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(ctr_bytes.begin(), ctr_bytes.end(), ctr.begin());
  const Bytes plain = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(aes_ctr_crypt(aes, ctr, plain)),
            "874d6191b620e3261bef6864990db6ce");
}

TEST(AesCtr, CryptIsItsOwnInverseAndHandlesPartialBlocks) {
  const Aes aes(Bytes(16, 0x7));
  Aes::Block ctr{};
  const Bytes data(37, 0x5a);  // deliberately not a multiple of 16
  const Bytes enc = aes_ctr_crypt(aes, ctr, data);
  EXPECT_EQ(aes_ctr_crypt(aes, ctr, enc), data);
  EXPECT_NE(enc, data);
}

}  // namespace
}  // namespace qkd::crypto
