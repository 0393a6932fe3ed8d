#include "src/crypto/gf2n.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>

#include "src/crypto/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qkd::crypto {
namespace {

// Spreads the 8 bits of a byte into the even positions of a 16-bit word;
// polynomial squaring over GF(2) is exactly this bit-spreading.
constexpr std::array<std::uint16_t, 256> make_spread_table() {
  std::array<std::uint16_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    std::uint16_t s = 0;
    for (unsigned i = 0; i < 8; ++i)
      if (b & (1u << i)) s |= static_cast<std::uint16_t>(1u << (2 * i));
    t[b] = s;
  }
  return t;
}
constexpr auto kSpread = make_spread_table();

// Degree of a dense polynomial, or -1 for the zero polynomial.
int degree_of(const qkd::BitVector& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (p.get(i)) return static_cast<int>(i);
  return -1;
}

// Polynomial squaring: spread every bit i to position 2i.
qkd::BitVector square_poly(const qkd::BitVector& a) {
  const auto bytes = a.to_bytes();
  qkd::BitVector out(a.size() * 2);
  auto words = out.words();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::uint64_t spread = kSpread[bytes[i]];
    const std::size_t bitpos = 16 * i;
    words[bitpos / 64] |= spread << (bitpos % 64);
    // A 16-bit spread never straddles a word boundary because bitpos is a
    // multiple of 16 and 16 divides 64.
  }
  out.normalize_tail();
  return out;
}

// GCD of two dense polynomials over GF(2) (Euclid with shifted XORs).
qkd::BitVector poly_gcd(qkd::BitVector a, qkd::BitVector b) {
  int da = degree_of(a), db = degree_of(b);
  while (db >= 0) {
    while (da >= db) {
      // a ^= b << (da - db)
      const std::size_t shift = static_cast<std::size_t>(da - db);
      for (int i = db; i >= 0; --i)
        if (b.get(static_cast<std::size_t>(i)))
          a.flip(static_cast<std::size_t>(i) + shift);
      da = degree_of(a);
      if (da < 0) break;
    }
    std::swap(a, b);
    std::swap(da, db);
  }
  a.resize(static_cast<std::size_t>(da + 1));
  return a;
}

std::vector<unsigned> prime_divisors(unsigned n) {
  std::vector<unsigned> out;
  for (unsigned p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      out.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

// Bits [pos, pos + len) of `w` as an integer, 1 <= len <= 64.
std::uint64_t read_bits(std::span<const std::uint64_t> w, std::size_t pos,
                        unsigned len) {
  const std::size_t i = pos / 64;
  const unsigned off = static_cast<unsigned>(pos % 64);
  std::uint64_t v = w[i] >> off;
  if (off + len > 64) v |= w[i + 1] << (64 - off);
  return len == 64 ? v : v & ((std::uint64_t{1} << len) - 1);
}

// XORs the low `len` bits of `v` (the rest zero) into bits [pos, pos + len).
void xor_bits(std::span<std::uint64_t> w, std::size_t pos, unsigned len,
              std::uint64_t v) {
  const std::size_t i = pos / 64;
  const unsigned off = static_cast<unsigned>(pos % 64);
  w[i] ^= v << off;
  if (off + len > 64) w[i + 1] ^= v >> (64 - off);
}

// Known low-weight irreducible polynomials (Seroussi, HPL-98-135 and common
// usage, e.g. the GCM polynomial for n = 128). Entries are verified by
// is_irreducible() the first time a field of that degree is built; a wrong
// entry falls back to search, so the table is purely an accelerator.
const std::map<unsigned, SparsePoly>& poly_table() {
  static const std::map<unsigned, SparsePoly> table = {
      {32, {{32, 7, 3, 2, 0}}},    {64, {{64, 4, 3, 1, 0}}},
      {96, {{96, 10, 9, 6, 0}}},   {128, {{128, 7, 2, 1, 0}}},
      {160, {{160, 5, 3, 2, 0}}},  {192, {{192, 15, 11, 5, 0}}},
      {224, {{224, 9, 8, 3, 0}}},  {256, {{256, 10, 5, 2, 0}}},
      {384, {{384, 12, 3, 2, 0}}}, {512, {{512, 8, 5, 2, 0}}},
      {768, {{768, 19, 17, 4, 0}}},{1024, {{1024, 19, 6, 1, 0}}},
      {1536, {{1536, 21, 6, 2, 0}}},
      {2048, {{2048, 19, 14, 13, 0}}},
      {3072, {{3072, 11, 10, 5, 0}}},
      {4096, {{4096, 27, 15, 1, 0}}},
      {8192, {{8192, 9, 5, 2, 0}}},
  };
  return table;
}

}  // namespace

bool SparsePoly::is_canonical() const {
  if (exponents.size() < 2 || exponents.back() != 0) return false;
  for (std::size_t i = 1; i < exponents.size(); ++i)
    if (exponents[i] >= exponents[i - 1]) return false;
  return true;
}

qkd::BitVector SparsePoly::to_bits() const {
  qkd::BitVector v(degree() + 1);
  for (unsigned e : exponents) v.set(e, true);
  return v;
}

namespace detail {

qkd::BitVector clmul_portable(const qkd::BitVector& a,
                              const qkd::BitVector& b) {
  if (a.empty() || b.empty()) return {};
  // López–Dahab comb, 4 bits wide. table[u] = u(x)·b(x) for every nibble u;
  // nibble k of a's word i contributes table[u]·x^(64i + 4k). Walking k from
  // high to low, XOR each word's row in at word offset i and shift the whole
  // product left 4 bits between nibble positions, so each row is XORed once
  // per word and the shifts are shared across all of a.
  const auto aw = a.words();
  const auto bw = b.words();
  const std::size_t row = bw.size() + 1;  // u·b is up to 3 bits wider than b
  std::vector<std::uint64_t> table(16 * row, 0);
  std::copy(bw.begin(), bw.end(), table.begin() + row);
  for (std::size_t u = 2; u < 16; u += 2) {
    const std::uint64_t* half = &table[(u / 2) * row];
    std::uint64_t* even = &table[u * row];
    std::uint64_t* odd = even + row;
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < row; ++j) {
      even[j] = (half[j] << 1) | carry;
      carry = half[j] >> 63;
      odd[j] = even[j] ^ table[row + j];
    }
  }
  // The product's degree is below 64 * (a's words + b's words), so no row
  // XOR reaches past the last word and no shift pushes a set bit out.
  qkd::BitVector out(64 * (aw.size() + bw.size()));
  const auto ow = out.words();
  for (int k = 15; k >= 0; --k) {
    for (std::size_t i = 0; i < aw.size(); ++i) {
      const std::uint64_t* t = &table[((aw[i] >> (4 * k)) & 0xF) * row];
      std::uint64_t* o = &ow[i];
      for (std::size_t j = 0; j < row; ++j) o[j] ^= t[j];
    }
    if (k == 0) break;
    for (std::size_t j = ow.size(); j-- > 1;)
      ow[j] = (ow[j] << 4) | (ow[j - 1] >> 60);
    ow[0] <<= 4;
  }
  out.resize(a.size() + b.size() - 1);
  return out;
}

#if defined(__x86_64__)
__attribute__((target("pclmul"))) qkd::BitVector clmul_pclmul(
    const qkd::BitVector& a, const qkd::BitVector& b) {
  if (a.empty() || b.empty()) return {};
  // a_i * b_j is 128 bits at word i + j. For each word of a, multiply it
  // into b two words at a time: a_i * b_j and a_i * b_(j+1) overlap in one
  // word, so the pair covers words i + j .. i + j + 2; the first two are
  // XORed into the output together and the third carries into the next
  // pair's first.
  const auto aw = a.words();
  const auto bw = b.words();
  qkd::BitVector out(64 * (aw.size() + bw.size()));
  const auto ow = out.words();
  for (std::size_t i = 0; i < aw.size(); ++i) {
    const __m128i x = _mm_cvtsi64_si128(static_cast<long long>(aw[i]));
    __m128i carry = _mm_setzero_si128();
    std::size_t j = 0;
    for (; j + 1 < bw.size(); j += 2) {
      const __m128i y =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&bw[j]));
      const __m128i low = _mm_clmulepi64_si128(x, y, 0x00);
      const __m128i high = _mm_clmulepi64_si128(x, y, 0x10);
      auto* o = reinterpret_cast<__m128i*>(&ow[i + j]);
      _mm_storeu_si128(
          o, _mm_xor_si128(_mm_xor_si128(_mm_loadu_si128(o), carry),
                           _mm_xor_si128(low, _mm_slli_si128(high, 8))));
      carry = _mm_srli_si128(high, 8);
    }
    if (j < bw.size()) {  // b has an odd word count
      const __m128i low = _mm_clmulepi64_si128(
          x, _mm_cvtsi64_si128(static_cast<long long>(bw[j])), 0x00);
      auto* o = reinterpret_cast<__m128i*>(&ow[i + j]);
      _mm_storeu_si128(o, _mm_xor_si128(_mm_loadu_si128(o),
                                        _mm_xor_si128(low, carry)));
    } else {
      ow[i + j] ^= static_cast<std::uint64_t>(_mm_cvtsi128_si64(carry));
    }
  }
  out.resize(a.size() + b.size() - 1);
  return out;
}
#endif

}  // namespace detail

qkd::BitVector clmul(const qkd::BitVector& a, const qkd::BitVector& b) {
#if defined(__x86_64__)
  if (detail::cpu_has_pclmul()) return detail::clmul_pclmul(a, b);
#endif
  return detail::clmul_portable(a, b);
}

void reduce_mod(qkd::BitVector& value, const SparsePoly& mod) {
  if (!mod.is_canonical())
    throw std::invalid_argument("reduce_mod: modulus not canonical");
  const unsigned n = mod.degree();
  // x^n = sum of the lower terms, so a chunk of bits [lo, hi) above degree
  // n folds to lo - n + t for every lower term t. Clearing the chunk is the
  // same XOR at t = n. A chunk at most n - t_max wide lands wholly below lo,
  // where a later step picks up whatever rose to degree n or more again.
  const unsigned step = std::min(64u, n - mod.exponents[1]);
  const auto w = value.words();
  for (std::size_t hi = value.size(); hi > n;) {
    const unsigned len =
        static_cast<unsigned>(std::min<std::size_t>(step, hi - n));
    const std::size_t lo = hi - len;
    const std::uint64_t chunk = read_bits(w, lo, len);
    if (chunk != 0)
      for (unsigned t : mod.exponents) xor_bits(w, lo - n + t, len, chunk);
    hi = lo;
  }
  value.resize(n);
}

bool is_irreducible(const SparsePoly& poly) {
  const unsigned n = poly.degree();
  if (n == 0) return false;
  if (n == 1) return true;
  // Without a constant term x divides the polynomial; other non-canonical
  // lists name no single polynomial.
  if (!poly.is_canonical()) return false;

  // Rabin: f (deg n) is irreducible iff x^(2^n) == x (mod f) and for every
  // prime p | n, gcd(x^(2^(n/p)) - x, f) == 1. One chain of n squarings,
  // checkpointing at the n/p exponents.
  std::vector<unsigned> checkpoints;
  for (unsigned p : prime_divisors(n)) checkpoints.push_back(n / p);

  qkd::BitVector h(n);
  if (n > 1) h.set(1, true);  // h = x
  const qkd::BitVector f_bits = poly.to_bits();

  for (unsigned k = 1; k <= n; ++k) {
    qkd::BitVector sq = square_poly(h);
    reduce_mod(sq, poly);
    h = std::move(sq);
    for (unsigned cp : checkpoints) {
      if (k != cp) continue;
      qkd::BitVector diff = h;
      if (diff.size() > 1) diff.flip(1);  // h + x
      qkd::BitVector g = poly_gcd(diff, f_bits);
      if (degree_of(g) != 0) return false;  // nontrivial common factor
    }
  }
  // h == x^(2^n) mod f must equal x.
  qkd::BitVector x(n);
  if (n > 1) x.set(1, true);
  return h == x;
}

SparsePoly irreducible_poly(unsigned degree) {
  if (degree < 2) throw std::invalid_argument("irreducible_poly: degree < 2");
  static std::mutex mu;
  static std::map<unsigned, SparsePoly> cache;
  std::scoped_lock lock(mu);
  if (auto it = cache.find(degree); it != cache.end()) return it->second;

  const auto& table = poly_table();
  if (auto it = table.find(degree); it != table.end()) {
    if (is_irreducible(it->second)) {
      cache[degree] = it->second;
      return it->second;
    }
  }
  // Trinomials first (cheapest), then pentanomials in lexicographic order.
  for (unsigned k = 1; k < degree; ++k) {
    SparsePoly cand{{degree, k, 0}};
    if (is_irreducible(cand)) {
      cache[degree] = cand;
      return cand;
    }
  }
  for (unsigned a = 3; a < degree; ++a) {
    for (unsigned b = 2; b < a; ++b) {
      for (unsigned c = 1; c < b; ++c) {
        SparsePoly cand{{degree, a, b, c, 0}};
        if (is_irreducible(cand)) {
          cache[degree] = cand;
          return cand;
        }
      }
    }
  }
  throw std::runtime_error("irreducible_poly: no low-weight polynomial found");
}

Gf2Field::Gf2Field(unsigned n) : n_(n), modulus_(irreducible_poly(n)) {}

Gf2Field::Gf2Field(unsigned n, SparsePoly modulus)
    : n_(n), modulus_(std::move(modulus)) {
  if (modulus_.degree() != n)
    throw std::invalid_argument("Gf2Field: modulus degree != n");
  if (!modulus_.is_canonical())
    throw std::invalid_argument("Gf2Field: modulus not canonical");
}

qkd::BitVector Gf2Field::multiply(const qkd::BitVector& a,
                                  const qkd::BitVector& b) const {
  if (a.size() > n_ || b.size() > n_)
    throw std::invalid_argument("Gf2Field::multiply: operand wider than field");
  qkd::BitVector prod = clmul(a, b);
  if (prod.size() < n_) {
    prod.resize(n_);
    return prod;
  }
  reduce_mod(prod, modulus_);
  return prod;
}

qkd::BitVector Gf2Field::add(const qkd::BitVector& a,
                             const qkd::BitVector& b) const {
  qkd::BitVector out = a;
  out.resize(n_);
  qkd::BitVector rhs = b;
  rhs.resize(n_);
  out ^= rhs;
  return out;
}

qkd::BitVector Gf2Field::pow2k(const qkd::BitVector& a, unsigned k) const {
  qkd::BitVector h = a;
  h.resize(n_);
  for (unsigned i = 0; i < k; ++i) {
    qkd::BitVector sq = square_poly(h);
    reduce_mod(sq, modulus_);
    h = std::move(sq);
  }
  return h;
}

}  // namespace qkd::crypto
