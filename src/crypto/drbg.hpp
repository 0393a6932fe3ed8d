// Deterministic random bit generator (hash-DRBG over SHA-1).
//
// Protocol components that need unpredictable-but-reproducible randomness in
// the simulation (IKE cookies, nonces, ESP IVs, privacy-amplification
// multipliers) draw from a Drbg seeded from the experiment's master seed.
// This is NIST SP 800-90A-shaped, not certified; determinism for experiment
// replay is the design goal.
#pragma once

#include <cstdint>

#include "src/common/bitvector.hpp"
#include "src/common/bytes.hpp"
#include "src/crypto/sha1.hpp"

namespace qkd::crypto {

class Drbg {
 public:
  explicit Drbg(std::span<const std::uint8_t> seed);
  explicit Drbg(std::uint64_t seed);

  Bytes generate(std::size_t n_bytes);
  qkd::BitVector generate_bits(std::size_t n_bits);
  std::uint32_t next_u32();
  std::uint64_t next_u64();

  /// Mixes additional entropy into the state.
  void reseed(std::span<const std::uint8_t> entropy);

 private:
  /// Writes the bytes generate(out.size()) would return into `out`.
  void fill(std::span<std::uint8_t> out);

  Sha1::Digest state_{};
  std::uint64_t counter_ = 0;
};

}  // namespace qkd::crypto
