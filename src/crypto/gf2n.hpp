// Arithmetic in GF(2^n) for privacy amplification.
//
// Section 5 of the paper: "The side that initiates privacy amplification
// chooses a linear hash function over the Galois Field GF[2^n] where n is the
// number of bits as input, rounded up to a multiple of 32. He then transmits
// ... the (sparse) primitive polynomial of the Galois field, a multiplier
// (n bits long), and an m-bit polynomial to add ..."
//
// Elements are polynomials over GF(2) packed into BitVectors (bit i = the
// coefficient of x^i). Field moduli are low-weight (trinomial / pentanomial)
// irreducible polynomials. A built-in table covers the n values the stack
// uses; any other multiple-of-32 n is served by an exhaustive low-weight
// search validated by a Ben-Or irreducibility test. (Irreducibility is what
// 2-universality of the hash requires; the paper says "primitive", which the
// table entries also are, but we only rely on the field structure.)
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitvector.hpp"

namespace qkd::crypto {

/// A sparse polynomial over GF(2), stored as the sorted list of exponents with
/// nonzero coefficients, highest first, e.g. x^32+x^7+x^3+x^2+1 is
/// {32, 7, 3, 2, 0}.
struct SparsePoly {
  std::vector<unsigned> exponents;

  unsigned degree() const { return exponents.empty() ? 0 : exponents.front(); }
  /// True when the exponents strictly descend from degree() >= 1 down to 0:
  /// the only form a field modulus takes. A repeated term names a different
  /// polynomial, a missing constant term leaves x as a factor, and a term
  /// out of order would land outside the reduced value.
  bool is_canonical() const;
  qkd::BitVector to_bits() const;  // dense, degree+1 bits
  bool operator==(const SparsePoly&) const = default;
};

/// Carry-less (GF(2)[x]) product of two bit-polynomials; result has
/// a.size()+b.size()-1 bits (or is empty if either input is empty). Runs the
/// PCLMULQDQ kernel where the CPU has it, the portable one elsewhere.
qkd::BitVector clmul(const qkd::BitVector& a, const qkd::BitVector& b);

namespace detail {
/// The two kernels clmul chooses between, for the tests that hold them
/// equal; same contract as clmul. The portable one is a 4-bit comb: 16
/// multiples of b, then one row XOR per nibble of a.
qkd::BitVector clmul_portable(const qkd::BitVector& a, const qkd::BitVector& b);
#if defined(__x86_64__)
/// A schoolbook over words, one PCLMULQDQ per pair; needs cpu_has_pclmul().
qkd::BitVector clmul_pclmul(const qkd::BitVector& a, const qkd::BitVector& b);
#endif
}  // namespace detail

/// Reduces `value` modulo the sparse polynomial `mod` (in place); afterwards
/// value.size() == mod.degree(). Folds up to 64 bits above the degree per
/// step. Throws std::invalid_argument unless mod.is_canonical().
void reduce_mod(qkd::BitVector& value, const SparsePoly& mod);

/// Ben-Or / Rabin irreducibility test over GF(2).
bool is_irreducible(const SparsePoly& poly);

/// Returns a low-weight irreducible polynomial of the given degree: the table
/// entry if present (verified once), otherwise the lexicographically smallest
/// irreducible trinomial or pentanomial found by search. Results are memoized.
/// Throws std::invalid_argument for degree < 2.
SparsePoly irreducible_poly(unsigned degree);

/// The finite field GF(2^n) with a fixed modulus.
class Gf2Field {
 public:
  /// Uses irreducible_poly(n) as the modulus.
  explicit Gf2Field(unsigned n);
  /// Uses a caller-supplied modulus; this is the path a privacy-amplification
  /// *responder* takes when the initiator announces the polynomial on the
  /// wire. Throws std::invalid_argument unless the modulus is canonical and
  /// of degree n. Irreducibility is the caller's contract, not checked here
  /// (a Ben-Or test per announced field would cost more than the hash); a
  /// reducible modulus still multiplies, but the hash loses 2-universality.
  Gf2Field(unsigned n, SparsePoly modulus);

  unsigned n() const { return n_; }
  const SparsePoly& modulus() const { return modulus_; }

  /// Field multiplication: inputs are n-bit values (shorter inputs are
  /// implicitly zero-extended), output is exactly n bits.
  qkd::BitVector multiply(const qkd::BitVector& a, const qkd::BitVector& b) const;

  /// Field addition (XOR); sizes may differ, result has n bits.
  qkd::BitVector add(const qkd::BitVector& a, const qkd::BitVector& b) const;

  /// a^(2^k) via repeated squaring (used by the irreducibility test and tests).
  qkd::BitVector pow2k(const qkd::BitVector& a, unsigned k) const;

 private:
  unsigned n_;
  SparsePoly modulus_;
};

}  // namespace qkd::crypto
