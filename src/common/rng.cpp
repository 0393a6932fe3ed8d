#include "src/common/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace qkd {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace detail {

ExpZiggurat::ExpZiggurat() {
  double x[kLayers + 1] = {};
  x[0] = kV / std::exp(-kR);
  x[1] = kR;
  for (int i = 1; i < kLayers - 1; ++i)
    x[i + 1] = -std::log(std::exp(-x[i]) + kV / x[i]);
  x[kLayers] = 0.0;
  for (int i = 0; i <= kLayers; ++i) f[i] = std::exp(-x[i]);
  for (int i = 0; i < kLayers; ++i) {
    layer[i].accept =
        static_cast<std::uint64_t>(std::ldexp(x[i + 1] / x[i], 56));
    layer[i].scale = std::ldexp(x[i], -56);
  }
}

}  // namespace detail

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

double Rng::exponential_edge(unsigned i, std::uint64_t x56) {
  const detail::ExpZiggurat& z = detail::exp_ziggurat();
  for (;;) {
    // The base layer past r is the tail, and Exp(1) forgets: r + Exp(1).
    if (i == 0) return z.kR - std::log(1.0 - next_double());
    // A wedge: x is under the curve with its height uniform in the layer.
    const double x = static_cast<double>(x56) * z.layer[i].scale;
    if (z.f[i] + next_double() * (z.f[i + 1] - z.f[i]) < std::exp(-x))
      return x;
    const std::uint64_t word = next_u64();
    i = static_cast<unsigned>(word & 0xff);
    x56 = word >> 8;
    if (x56 < z.layer[i].accept)
      return static_cast<double>(x56) * z.layer[i].scale;
  }
}

unsigned Rng::next_poisson(double mu) {
  if (mu < 0.0) throw std::invalid_argument("Rng::next_poisson: mu < 0");
  if (mu == 0.0) return 0;
  if (mu < 30.0) {
    // Knuth inversion: multiply uniforms until the product drops below e^-mu.
    const double limit = std::exp(-mu);
    unsigned k = 0;
    double prod = next_double();
    while (prod > limit) {
      ++k;
      prod *= next_double();
    }
    return k;
  }
  // Normal approximation with continuity correction: adequate for large means,
  // which only occur in bright-pulse (framing) simulation where exact Poisson
  // tails are irrelevant.
  const double u1 = next_double(), u2 = next_double();
  const double z = std::sqrt(-2.0 * std::log(1.0 - u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  const double v = mu + std::sqrt(mu) * z + 0.5;
  return v < 0.0 ? 0u : static_cast<unsigned>(v);
}

BitVector Rng::next_bits(std::size_t n) {
  BitVector v(n);
  auto words = v.words();
  for (auto& w : words) w = next_u64();
  v.normalize_tail();
  return v;
}

}  // namespace qkd
