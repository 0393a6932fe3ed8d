#include "src/ipsec/esp.hpp"

#include <cstring>
#include <stdexcept>
#include <variant>

#include "src/crypto/aes.hpp"
#include "src/crypto/des.hpp"
#include "src/crypto/hmac.hpp"

namespace qkd::ipsec {

using qkd::crypto::Aes;
using qkd::crypto::TripleDes;

namespace {

constexpr std::size_t kIcvBytes = 12;  // HMAC-SHA1-96

std::size_t cipher_block_bytes(CipherAlgo algo) {
  switch (algo) {
    case CipherAlgo::kAes128:
    case CipherAlgo::kAes256:
      return 16;
    case CipherAlgo::kTripleDes:
      return 8;
    case CipherAlgo::kOneTimePad:
      return 1;
  }
  return 1;
}

/// RFC 2406 trailer: pad to block size, then pad-length and next-header
/// bytes (we carry next-header = 4, IP-in-IP).
Bytes pad_payload(const Bytes& inner, std::size_t block) {
  Bytes padded = inner;
  const std::size_t with_trailer = inner.size() + 2;
  const std::size_t padding = (block - with_trailer % block) % block;
  for (std::size_t i = 1; i <= padding; ++i)
    padded.push_back(static_cast<std::uint8_t>(i));
  padded.push_back(static_cast<std::uint8_t>(padding));
  padded.push_back(4);  // next header: IP-in-IP
  return padded;
}

std::optional<Bytes> unpad_payload(const Bytes& padded) {
  if (padded.size() < 2) return std::nullopt;
  const std::uint8_t next_header = padded.back();
  const std::uint8_t pad_len = padded[padded.size() - 2];
  if (next_header != 4) return std::nullopt;
  if (padded.size() < 2u + pad_len) return std::nullopt;
  return Bytes(padded.begin(),
               padded.end() - static_cast<std::ptrdiff_t>(2 + pad_len));
}

std::uint64_t des_iv(const Bytes& iv) {
  std::uint64_t iv64 = 0;
  for (int i = 0; i < 8; ++i) iv64 = iv64 << 8 | iv[static_cast<std::size_t>(i)];
  return iv64;
}

Aes::Block aes_iv(const Bytes& iv) {
  Aes::Block iv_block{};
  std::memcpy(iv_block.data(), iv.data(), 16);
  return iv_block;
}

}  // namespace

struct EspKeySchedule {
  explicit EspKeySchedule(const SecurityAssociation& sa)
      : algo(sa.cipher),
        encryption_key(sa.encryption_key),
        authentication_key(sa.authentication_key),
        mac(authentication_key) {
    switch (algo) {
      case CipherAlgo::kAes128:
      case CipherAlgo::kAes256:
        cipher.emplace<Aes>(encryption_key);
        break;
      case CipherAlgo::kTripleDes:
        cipher.emplace<TripleDes>(encryption_key);
        break;
      case CipherAlgo::kOneTimePad:
        break;
    }
  }

  bool built_from(const SecurityAssociation& sa) const {
    return algo == sa.cipher && encryption_key == sa.encryption_key &&
           authentication_key == sa.authentication_key;
  }

  // The SA fields the schedule was built from.
  CipherAlgo algo;
  Bytes encryption_key;
  Bytes authentication_key;

  std::variant<std::monostate, Aes, TripleDes> cipher;  // empty for OTP
  qkd::crypto::HmacSha1Key mac;
};

namespace {

/// The SA's key schedule, built now if the SA has none or its keys changed
/// since it was built (a test edit, or a copy rekeyed in place).
const EspKeySchedule& key_schedule(SecurityAssociation& sa) {
  if (!sa.key_schedule || !sa.key_schedule->built_from(sa))
    sa.key_schedule = std::make_shared<const EspKeySchedule>(sa);
  return *sa.key_schedule;
}

Bytes encrypt_payload(const EspKeySchedule& keys, const Bytes& plain,
                      const Bytes& iv) {
  if (const auto* aes = std::get_if<Aes>(&keys.cipher))
    return qkd::crypto::aes_cbc_encrypt(*aes, aes_iv(iv), plain);
  if (const auto* des = std::get_if<TripleDes>(&keys.cipher))
    return qkd::crypto::des3_cbc_encrypt(*des, des_iv(iv), plain);
  throw std::logic_error("encrypt_payload: OTP handled separately");
}

Bytes decrypt_payload(const EspKeySchedule& keys, const Bytes& cipher,
                      const Bytes& iv) {
  if (const auto* aes = std::get_if<Aes>(&keys.cipher))
    return qkd::crypto::aes_cbc_decrypt(*aes, aes_iv(iv), cipher);
  if (const auto* des = std::get_if<TripleDes>(&keys.cipher))
    return qkd::crypto::des3_cbc_decrypt(*des, des_iv(iv), cipher);
  throw std::logic_error("decrypt_payload: OTP handled separately");
}

/// XORs `data` with the next data.size() * 8 pad bits of the SA.
std::optional<Bytes> otp_crypt(SecurityAssociation& sa, const Bytes& data) {
  const std::size_t need = data.size() * 8;
  if (sa.otp_bits_available() < need) return std::nullopt;
  const qkd::BitVector pad = sa.otp_pool.slice(sa.otp_cursor, need);
  sa.otp_cursor += need;
  const Bytes pad_bytes = pad.to_bytes();
  Bytes out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[i] ^ pad_bytes[i];
  return out;
}

Bytes compute_icv(const EspKeySchedule& keys, const Bytes& header_and_body) {
  const auto mac = keys.mac.mac(header_and_body);
  return Bytes(mac.begin(), mac.begin() + kIcvBytes);
}

/// One cipher block of IV; a one-time pad carries none.
std::size_t iv_bytes_for(CipherAlgo algo) {
  return algo == CipherAlgo::kOneTimePad ? 0 : cipher_block_bytes(algo);
}

}  // namespace

std::optional<Bytes> esp_encapsulate(SecurityAssociation& sa,
                                     const IpPacket& inner,
                                     std::uint64_t iv_seed) {
  const EspKeySchedule& keys = key_schedule(sa);
  const Bytes inner_wire = inner.serialize();
  const std::size_t block = cipher_block_bytes(sa.cipher);
  const Bytes padded = pad_payload(inner_wire, block);

  // Derive a per-packet IV from the seed and sequence number.
  const std::size_t iv_len = iv_bytes_for(sa.cipher);
  Bytes iv;
  for (std::size_t i = 0; i < iv_len; ++i) {
    iv.push_back(static_cast<std::uint8_t>(
        (iv_seed ^ (sa.send_seq * 0x9e3779b97f4a7c15ULL)) >> (8 * (i % 8)) ^
        static_cast<std::uint8_t>(i * 0x45)));
  }

  Bytes ciphertext;
  if (sa.cipher == CipherAlgo::kOneTimePad) {
    auto encrypted = otp_crypt(sa, padded);
    if (!encrypted.has_value()) return std::nullopt;  // pad ran dry
    ciphertext = std::move(*encrypted);
  } else {
    ciphertext = encrypt_payload(keys, padded, iv);
  }

  ++sa.send_seq;
  Bytes out;
  put_u32(out, sa.spi);
  put_u64(out, sa.send_seq);  // first packet carries seq 1
  put_bytes(out, iv);
  put_bytes(out, ciphertext);
  const Bytes icv = compute_icv(keys, out);
  put_bytes(out, icv);
  sa.bytes_protected += inner_wire.size();
  return out;
}

EspResult esp_decapsulate(SecurityAssociation& sa, const Bytes& wire) {
  EspResult result;
  const std::size_t iv_len = iv_bytes_for(sa.cipher);
  if (wire.size() < 4 + 8 + iv_len + kIcvBytes) {
    result.error = EspError::kMalformed;
    return result;
  }

  // Integrity first (HMAC over everything but the ICV).
  const Bytes body(wire.begin(),
                   wire.end() - static_cast<std::ptrdiff_t>(kIcvBytes));
  const Bytes icv(wire.end() - static_cast<std::ptrdiff_t>(kIcvBytes),
                  wire.end());
  const EspKeySchedule& keys = key_schedule(sa);
  if (!qkd::crypto::constant_time_equal(compute_icv(keys, body), icv)) {
    result.error = EspError::kBadIntegrity;
    return result;
  }

  ByteReader reader(body);
  reader.u32();  // SPI (caller already routed on it)
  const std::uint64_t seq = reader.u64();
  if (!sa.replay_check_and_update(seq)) {
    result.error = EspError::kReplay;
    return result;
  }
  const Bytes iv = reader.bytes(iv_len);
  const Bytes ciphertext = reader.bytes(reader.remaining());

  Bytes padded;
  if (sa.cipher == CipherAlgo::kOneTimePad) {
    auto decrypted = otp_crypt(sa, ciphertext);
    if (!decrypted.has_value()) {
      result.error = EspError::kOtpExhausted;
      return result;
    }
    padded = std::move(*decrypted);
  } else {
    if (ciphertext.size() % cipher_block_bytes(sa.cipher) != 0) {
      result.error = EspError::kMalformed;
      return result;
    }
    padded = decrypt_payload(keys, ciphertext, iv);
  }

  const auto inner_wire = unpad_payload(padded);
  if (!inner_wire.has_value()) {
    result.error = EspError::kMalformed;
    return result;
  }
  try {
    result.packet = IpPacket::parse(*inner_wire);
  } catch (const std::invalid_argument&) {
    result.error = EspError::kMalformed;
  }
  return result;
}

}  // namespace qkd::ipsec
