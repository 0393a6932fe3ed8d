// Privacy amplification (Section 5).
//
// "The side that initiates privacy amplification chooses a linear hash
// function over the Galois Field GF[2^n] where n is the number of bits as
// input, rounded up to a multiple of 32. He then transmits four things to
// the other end — the number of bits m of the shortened result, the (sparse)
// primitive polynomial of the Galois field, a multiplier (n bits long), and
// an m-bit polynomial to add (i.e. a bit string to exclusive-or) with the
// product. Each side then performs the corresponding hash and truncates the
// result to m bits."
//
// h(x) = truncate_m(a * x  in GF(2^n))  XOR  v
// is a 2-universal family (for random a), so by the privacy-amplification
// theorem the output is within 2^-s of uniform given Eve's Renyi information
// bound from the entropy estimate.
#pragma once

#include <cstdint>

#include "src/common/bitvector.hpp"
#include "src/crypto/drbg.hpp"
#include "src/crypto/gf2n.hpp"
#include "src/wire/packets.hpp"

namespace qkd::proto {

/// Rounds an input length up to the field width the paper prescribes.
inline std::uint32_t round_up_to_32(std::size_t bits) {
  return static_cast<std::uint32_t>((bits + 31) / 32 * 32);
}

/// Field widths with pre-validated low-weight irreducible polynomials.
/// make_pa_params picks the smallest ladder entry >= round_up_to_32(input):
/// zero-padding the input into a slightly wider field preserves
/// 2-universality and avoids an open-ended polynomial search for every
/// distinct batch size. The largest ladder width bounds a PA block; the
/// engine chunks longer inputs.
std::uint32_t pa_field_width(std::size_t input_bits);

/// Largest input a single PA block supports (== top of the ladder).
std::size_t pa_max_block_bits();

/// Initiator's choice of parameters for shrinking `input_bits` bits to
/// `output_bits` bits, as the packet that announces them. Throws
/// std::invalid_argument if output > input.
wire::PaParamsPacket make_pa_params(std::size_t input_bits,
                                    std::size_t output_bits,
                                    qkd::crypto::Drbg& drbg);

/// Applies the announced hash. Both sides call this with identical params;
/// equal inputs yield equal outputs (and unequal inputs almost surely don't).
qkd::BitVector privacy_amplify(const qkd::BitVector& input,
                               const wire::PaParamsPacket& params);

}  // namespace qkd::proto
