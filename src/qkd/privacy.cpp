#include "src/qkd/privacy.hpp"

#include <stdexcept>

namespace qkd::proto {

namespace {
// Widths whose low-weight irreducible polynomials are pinned in the
// qkd::crypto table (verified by crypto tests).
constexpr std::uint32_t kWidthLadder[] = {32,  64,   96,   128,  192, 256,
                                          384, 512,  768,  1024, 1536, 2048,
                                          3072, 4096};
}  // namespace

std::uint32_t pa_field_width(std::size_t input_bits) {
  const std::uint32_t needed = std::max(round_up_to_32(input_bits), 32u);
  for (std::uint32_t w : kWidthLadder)
    if (w >= needed) return w;
  throw std::invalid_argument("pa_field_width: input exceeds ladder maximum");
}

std::size_t pa_max_block_bits() {
  return kWidthLadder[std::size(kWidthLadder) - 1];
}

wire::PaParamsPacket make_pa_params(std::size_t input_bits,
                                    std::size_t output_bits,
                                    qkd::crypto::Drbg& drbg) {
  if (output_bits > input_bits)
    throw std::invalid_argument("make_pa_params: output exceeds input");
  if (input_bits == 0)
    throw std::invalid_argument("make_pa_params: empty input");
  wire::PaParamsPacket p;
  p.n = pa_field_width(input_bits);
  p.m = static_cast<std::uint32_t>(output_bits);
  p.modulus_exponents = qkd::crypto::irreducible_poly(p.n).exponents;
  p.multiplier = drbg.generate_bits(p.n);
  p.addend = drbg.generate_bits(p.m);
  return p;
}

qkd::BitVector privacy_amplify(const qkd::BitVector& input,
                               const wire::PaParamsPacket& params) {
  if (input.size() > params.n)
    throw std::invalid_argument("privacy_amplify: input wider than field");
  const qkd::crypto::Gf2Field field(params.n, {params.modulus_exponents});
  qkd::BitVector x = input;
  x.resize(params.n);  // zero-pad up to the field width
  qkd::BitVector product = field.multiply(params.multiplier, x);
  product.resize(params.m);  // truncate to m bits
  product ^= params.addend;
  return product;
}

}  // namespace qkd::proto
