// ESP tunnel-mode traffic processing (RFC 2406 shape), with the paper's
// one-time-pad extension.
//
// Outbound: the inner IP packet is padded, encrypted under the SA's cipher
// (AES-CBC, 3DES-CBC, or the Vernam/one-time-pad extension drawing pad bits
// from QKD key material), wrapped in an ESP header (SPI, sequence number,
// IV) and authenticated with truncated HMAC-SHA1. Inbound reverses the
// process with anti-replay and integrity checks. The SA's cipher and HMAC
// are keyed on its first packet and reused until its keys change.
//
// Wire layout:  spi(4) | seq(8) | iv(0|8|16) | ciphertext | icv(12)
// For OTP SAs there is no IV; the pad position is implied by lockstep
// consumption on both sides (a real system would carry an offset; lockstep
// keeps the simulation honest because loss is handled above this layer).
#pragma once

#include <optional>

#include "src/common/bytes.hpp"
#include "src/ipsec/ip_packet.hpp"
#include "src/ipsec/sad.hpp"

namespace qkd::ipsec {

/// Why decapsulation failed — distinguished for the Section 7 experiments
/// (auth failures are the visible symptom of mismatched QKD bits).
enum class EspError {
  kUnknownSpi,
  kReplay,
  kBadIntegrity,
  kMalformed,
  kOtpExhausted,
};

struct EspResult {
  std::optional<IpPacket> packet;
  std::optional<EspError> error;
  bool ok() const { return packet.has_value(); }
};

/// Encapsulates `inner` under `sa` (tunnel mode). Advances the SA's sequence
/// number, byte counters and (for OTP) pad cursor. Returns nullopt if an OTP
/// SA has insufficient pad (the key-consumption race of Sec. 2).
std::optional<Bytes> esp_encapsulate(SecurityAssociation& sa,
                                     const IpPacket& inner,
                                     std::uint64_t iv_seed);

/// Decapsulates an ESP payload under `sa` with anti-replay + integrity.
EspResult esp_decapsulate(SecurityAssociation& sa, const Bytes& wire);

}  // namespace qkd::ipsec
