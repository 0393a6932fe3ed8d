#include "src/qkd/privacy.hpp"

#include <stdexcept>

namespace qkd::proto {

Bytes PaParams::serialize() const {
  Bytes out;
  put_u32(out, n);
  put_u32(out, m);
  put_u8(out, static_cast<std::uint8_t>(modulus.exponents.size()));
  for (unsigned e : modulus.exponents) put_u32(out, e);
  put_bytes(out, multiplier.to_bytes());
  put_bytes(out, addend.to_bytes());
  return out;
}

PaParams PaParams::deserialize(const Bytes& wire) {
  try {
    ByteReader reader(wire);
    PaParams p;
    p.n = reader.u32();
    p.m = reader.u32();
    if (p.n == 0 || p.n % 32 != 0 || p.m > p.n)
      throw std::invalid_argument("PaParams: bad field/output widths");
    const std::uint8_t terms = reader.u8();
    for (unsigned i = 0; i < terms; ++i)
      p.modulus.exponents.push_back(reader.u32());
    if (p.modulus.degree() != p.n)
      throw std::invalid_argument("PaParams: modulus degree != n");
    if (!p.modulus.is_canonical())
      throw std::invalid_argument("PaParams: modulus not canonical");
    p.multiplier = qkd::BitVector::from_bytes(reader.bytes((p.n + 7) / 8));
    p.multiplier.resize(p.n);
    p.addend = qkd::BitVector::from_bytes(reader.bytes((p.m + 7) / 8));
    p.addend.resize(p.m);
    if (!reader.done()) throw std::invalid_argument("PaParams: trailing bytes");
    return p;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("PaParams: truncated");
  }
}

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

PaParams make_pa_params(std::size_t input_bits, std::size_t output_bits,
                        qkd::crypto::Drbg& drbg) {
  if (output_bits > input_bits)
    throw std::invalid_argument("make_pa_params: output exceeds input");
  if (input_bits == 0)
    throw std::invalid_argument("make_pa_params: empty input");
  PaParams p;
  p.n = pa_field_width(input_bits);
  p.m = static_cast<std::uint32_t>(output_bits);
  p.modulus = qkd::crypto::irreducible_poly(p.n);
  p.multiplier = drbg.generate_bits(p.n);
  p.addend = drbg.generate_bits(p.m);
  return p;
}

qkd::BitVector privacy_amplify(const qkd::BitVector& input,
                               const PaParams& params) {
  if (input.size() > params.n)
    throw std::invalid_argument("privacy_amplify: input wider than field");
  const qkd::crypto::Gf2Field field(params.n, params.modulus);
  qkd::BitVector x = input;
  x.resize(params.n);  // zero-pad up to the field width
  qkd::BitVector product = field.multiply(params.multiplier, x);
  product.resize(params.m);  // truncate to m bits
  product ^= params.addend;
  return product;
}

}  // namespace qkd::proto
