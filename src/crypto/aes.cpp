#include "src/crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "src/crypto/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qkd::crypto {
namespace {

// ---- GF(2^8) helpers for table generation (modulus x^8+x^4+x^3+x+1) ----

constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) result ^= a;
    b >>= 1;
    a = xtime(a);
  }
  return result;
}

constexpr std::uint8_t ginv(std::uint8_t a) {
  if (a == 0) return 0;
  // a^254 = a^-1 in GF(2^8).
  std::uint8_t result = 1, base = a;
  int e = 254;
  while (e > 0) {
    if (e & 1) result = gmul(result, base);
    base = gmul(base, base);
    e >>= 1;
  }
  return result;
}

constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> sbox{};
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint8_t x = ginv(static_cast<std::uint8_t>(i));
    // Affine transform: b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4) ^ 0x63.
    std::uint8_t y = x;
    for (int r = 1; r <= 4; ++r)
      y ^= static_cast<std::uint8_t>((x << r) | (x >> (8 - r)));
    sbox[i] = y ^ 0x63;
  }
  return sbox;
}

constexpr std::array<std::uint8_t, 256> make_inv_sbox(
    const std::array<std::uint8_t, 256>& sbox) {
  std::array<std::uint8_t, 256> inv{};
  for (unsigned i = 0; i < 256; ++i) inv[sbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}

constexpr auto kSbox = make_sbox();
constexpr auto kInvSbox = make_inv_sbox(kSbox);

void sub_bytes(std::uint8_t* s) {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}

void inv_sub_bytes(std::uint8_t* s) {
  for (int i = 0; i < 16; ++i) s[i] = kInvSbox[s[i]];
}

// State is column-major: s[4*c + r] is row r, column c (FIPS 197 layout when
// loading input bytes sequentially into columns).
void shift_rows(std::uint8_t* s) {
  std::uint8_t t[16];
  std::memcpy(t, s, 16);
  for (int r = 1; r < 4; ++r)
    for (int c = 0; c < 4; ++c) s[4 * c + r] = t[4 * ((c + r) % 4) + r];
}

void inv_shift_rows(std::uint8_t* s) {
  std::uint8_t t[16];
  std::memcpy(t, s, 16);
  for (int r = 1; r < 4; ++r)
    for (int c = 0; c < 4; ++c) s[4 * ((c + r) % 4) + r] = t[4 * c + r];
}

void mix_columns(std::uint8_t* s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3));
    col[3] = static_cast<std::uint8_t>(gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2));
  }
}

void inv_mix_columns(std::uint8_t* s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^
                                       gmul(a2, 13) ^ gmul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^
                                       gmul(a2, 11) ^ gmul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^
                                       gmul(a2, 14) ^ gmul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^
                                       gmul(a2, 9) ^ gmul(a3, 14));
  }
}

void add_round_key(std::uint8_t* s, const std::uint8_t* rk) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

detail::AesKernel encrypt_kernel() {
#if defined(__x86_64__)
  if (detail::cpu_has_aes()) return detail::aes_encrypt_aes_ni;
#endif
  return detail::aes_encrypt_portable;
}

detail::AesKernel decrypt_kernel() {
#if defined(__x86_64__)
  if (detail::cpu_has_aes()) return detail::aes_decrypt_aes_ni;
#endif
  return detail::aes_decrypt_portable;
}

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  const std::size_t nk = key.size() / 4;  // key length in 32-bit words
  if (key.size() != 16 && key.size() != 24 && key.size() != 32)
    throw std::invalid_argument("Aes: key must be 16, 24 or 32 bytes");
  const unsigned rounds = static_cast<unsigned>(nk + 6);
  schedule_.rounds = rounds;

  const std::size_t total_words = 4 * (rounds + 1);
  std::uint8_t* w = schedule_.enc.data();
  std::memcpy(w, key.data(), key.size());

  std::uint8_t rcon = 1;
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ rcon);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : temp) b = kSbox[b];
    }
    for (int b = 0; b < 4; ++b) w[4 * i + b] = w[4 * (i - nk) + b] ^ temp[b];
  }

  // The equivalent inverse cipher's keys, for the AES-NI decryption.
  std::uint8_t* d = schedule_.dec.data();
  for (unsigned r = 0; r <= rounds; ++r) {
    std::memcpy(d + 16 * r, w + 16 * (rounds - r), 16);
    if (r != 0 && r != rounds) inv_mix_columns(d + 16 * r);
  }
}

void Aes::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  encrypt_kernel()(schedule_, in, out);
}

void Aes::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  decrypt_kernel()(schedule_, in, out);
}

Aes::Block Aes::encrypt_block(const Block& in) const {
  Block out;
  encrypt_block(in.data(), out.data());
  return out;
}

Aes::Block Aes::decrypt_block(const Block& in) const {
  Block out;
  decrypt_block(in.data(), out.data());
  return out;
}

Bytes aes_cbc_encrypt(const Aes& aes, const Aes::Block& iv,
                      std::span<const std::uint8_t> plaintext) {
  return detail::aes_cbc_encrypt(encrypt_kernel(), aes.schedule(), iv,
                                 plaintext);
}

Bytes aes_cbc_decrypt(const Aes& aes, const Aes::Block& iv,
                      std::span<const std::uint8_t> ciphertext) {
  return detail::aes_cbc_decrypt(decrypt_kernel(), aes.schedule(), iv,
                                 ciphertext);
}

Bytes aes_ctr_crypt(const Aes& aes, const Aes::Block& counter_block,
                    std::span<const std::uint8_t> data) {
  Bytes out(data.size());
  Aes::Block counter = counter_block;
  for (std::size_t off = 0; off < data.size(); off += 16) {
    const Aes::Block keystream = aes.encrypt_block(counter);
    const std::size_t n = std::min<std::size_t>(16, data.size() - off);
    for (std::size_t i = 0; i < n; ++i)
      out[off + i] = data[off + i] ^ keystream[i];
    // Big-endian increment of the trailing 32-bit counter.
    for (int i = 15; i >= 12; --i)
      if (++counter[static_cast<std::size_t>(i)] != 0) break;
  }
  return out;
}

namespace detail {

Bytes aes_cbc_encrypt(AesKernel encrypt, const AesSchedule& ks,
                      const Aes::Block& iv,
                      std::span<const std::uint8_t> plaintext) {
  if (plaintext.size() % Aes::kBlockSize != 0)
    throw std::invalid_argument("aes_cbc_encrypt: unpadded input");
  Bytes out(plaintext.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < plaintext.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = plaintext[off + i] ^ chain[i];
    encrypt(ks, block, out.data() + off);
    chain = out.data() + off;
  }
  return out;
}

Bytes aes_cbc_decrypt(AesKernel decrypt, const AesSchedule& ks,
                      const Aes::Block& iv,
                      std::span<const std::uint8_t> ciphertext) {
  if (ciphertext.size() % Aes::kBlockSize != 0)
    throw std::invalid_argument("aes_cbc_decrypt: truncated input");
  Bytes out(ciphertext.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < ciphertext.size(); off += 16) {
    decrypt(ks, ciphertext.data() + off, out.data() + off);
    for (int i = 0; i < 16; ++i) out[off + i] ^= chain[i];
    chain = ciphertext.data() + off;
  }
  return out;
}

void aes_encrypt_portable(const AesSchedule& ks, const std::uint8_t* in,
                          std::uint8_t* out) {
  const std::uint8_t* rk = ks.enc.data();
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  add_round_key(s, rk);
  for (unsigned round = 1; round < ks.rounds; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, rk + 16 * round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, rk + 16 * ks.rounds);
  std::memcpy(out, s, 16);
}

void aes_decrypt_portable(const AesSchedule& ks, const std::uint8_t* in,
                          std::uint8_t* out) {
  const std::uint8_t* rk = ks.enc.data();
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  add_round_key(s, rk + 16 * ks.rounds);
  for (unsigned round = ks.rounds - 1; round >= 1; --round) {
    inv_shift_rows(s);
    inv_sub_bytes(s);
    add_round_key(s, rk + 16 * round);
    inv_mix_columns(s);
  }
  inv_shift_rows(s);
  inv_sub_bytes(s);
  add_round_key(s, rk);
  std::memcpy(out, s, 16);
}

#if defined(__x86_64__)
// The state and round keys load as they are laid out in memory: AES-NI
// takes FIPS 197's byte order, so neither needs a shuffle.
__attribute__((target("aes"))) void aes_encrypt_aes_ni(
    const AesSchedule& ks, const std::uint8_t* in, std::uint8_t* out) {
  const auto* rk = reinterpret_cast<const __m128i*>(ks.enc.data());
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_load_si128(rk));
  for (unsigned round = 1; round < ks.rounds; ++round)
    s = _mm_aesenc_si128(s, _mm_load_si128(rk + round));
  s = _mm_aesenclast_si128(s, _mm_load_si128(rk + ks.rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

__attribute__((target("aes"))) void aes_decrypt_aes_ni(
    const AesSchedule& ks, const std::uint8_t* in, std::uint8_t* out) {
  const auto* rk = reinterpret_cast<const __m128i*>(ks.dec.data());
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      _mm_load_si128(rk));
  for (unsigned round = 1; round < ks.rounds; ++round)
    s = _mm_aesdec_si128(s, _mm_load_si128(rk + round));
  s = _mm_aesdeclast_si128(s, _mm_load_si128(rk + ks.rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}
#endif

}  // namespace detail

}  // namespace qkd::crypto
