// Deterministic random number generation for the simulator.
//
// Every stochastic component (photon sources, detectors, Eve, protocol nonce
// generation) draws from its own Rng instance, seeded from a master seed via
// SplitMix64, so that simulations are exactly reproducible and components can
// be re-seeded independently in tests.
//
// The core generator is xoshiro256** (Blackman & Vigna), small, fast and of
// far higher quality than std::minstd; we avoid std::mt19937 for speed in the
// per-pulse Monte-Carlo loops (millions of draws per simulated second).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "src/common/bitvector.hpp"

namespace qkd {

/// SplitMix64 step; used for seeding and cheap hashing of seed material.
std::uint64_t splitmix64(std::uint64_t& state);

namespace detail {

/// The 256-layer ziggurat for Exp(1) (Marsaglia & Tsang, 2000). Layer i
/// spans [0, x_i) at heights [e^-x_i, e^-x_(i+1)], with x_0 > x_1 = r >
/// ... > x_256 = 0, and every layer holds the same area v. Layer 0 is the
/// base: its width x_0 = v / e^-r stands for the rectangle under e^-r plus
/// the tail beyond r.
struct ExpZiggurat {
  static constexpr int kLayers = 256;
  static constexpr double kR = 7.69711747013104972;
  static constexpr double kV = 0.0039496598225815571993;
  struct Layer {
    std::uint64_t accept;  // a 56-bit x below this lies under the curve
    double scale;          // x_i / 2^56
  };
  Layer layer[kLayers];
  double f[kLayers + 1];  // e^-x_i

  ExpZiggurat();
};

/// The tables, built on first use.
inline const ExpZiggurat& exp_ziggurat() {
  static const ExpZiggurat tables;
  return tables;
}

}  // namespace detail

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child generator (for per-component seeding).
  Rng fork();

  // The per-draw primitives are inline: event loops call them per photon.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Lemire's
  /// nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Exp(1) variate from the ziggurat: one word and no log on ~98 % of
  /// draws. The low 8 bits pick the layer and the top 56 give x; the two
  /// share no bits, which keeps layer and x independent (Doornik, 2005).
  double next_exponential() {
    const std::uint64_t word = next_u64();
    const unsigned i = static_cast<unsigned>(word & 0xff);
    const std::uint64_t x56 = word >> 8;
    const detail::ExpZiggurat::Layer& layer = detail::exp_ziggurat().layer[i];
    if (x56 < layer.accept) return static_cast<double>(x56) * layer.scale;
    return exponential_edge(i, x56);
  }

  /// Poisson-distributed count with mean `mu` (exact inversion for small mu,
  /// PTRS rejection for large mu). QKD sources use mu ~ 0.1.
  unsigned next_poisson(double mu);

  /// Vector of n independent uniform bits.
  BitVector next_bits(std::size_t n);

 private:
  /// The rare ziggurat draws: the base layer's tail and the wedges.
  double exponential_edge(unsigned layer, std::uint64_t x56);

  std::uint64_t s_[4];
};

}  // namespace qkd
