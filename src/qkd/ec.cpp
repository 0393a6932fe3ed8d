#include "src/qkd/ec.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"

namespace qkd::proto {

qkd::BitVector subset_mask_from_seed(std::uint32_t seed, std::size_t n) {
  std::uint64_t mix = 0x5eedba5e00000000ULL | seed;
  qkd::Rng rng(splitmix64(mix));
  return rng.next_bits(n);
}

std::vector<std::uint32_t> lfsr_members(std::uint32_t seed, std::size_t n) {
  const qkd::BitVector mask = subset_mask_from_seed(seed, n);
  std::vector<std::uint32_t> members;
  members.reserve(mask.popcount());
  mask.for_each_set_bit(
      [&](std::size_t i) { members.push_back(static_cast<std::uint32_t>(i)); });
  return members;
}

namespace {

/// The generator behind seed's shuffle.
qkd::Rng shuffle_rng(std::uint32_t seed) {
  return qkd::Rng(0x9e3779b97f4a7c15ULL ^
                  (static_cast<std::uint64_t>(seed) << 16));
}

/// The seeded Fisher-Yates shuffle of [0, n), calling settle(i, perm[i])
/// for each index as its entry becomes final, from n - 1 down to 0.
template <typename Settle>
std::vector<std::uint32_t> shuffle(std::uint32_t seed, std::size_t n,
                                   Settle&& settle) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  qkd::Rng rng = shuffle_rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(perm[i - 1], perm[j]);
    settle(i - 1, perm[i - 1]);
  }
  if (n > 0) settle(0, perm[0]);
  return perm;
}

}  // namespace

std::vector<std::uint32_t> seeded_permutation(std::uint32_t seed,
                                              std::size_t n) {
  return shuffle(seed, n, [](std::size_t, std::uint32_t) {});
}

PermutedView permuted_view(std::uint32_t seed, const qkd::BitVector& bits) {
  const std::size_t n = bits.size();
  PermutedView view;
  view.inv.resize(n);
  view.bits = qkd::BitVector(n);
  const auto in = bits.words();
  const auto out = view.bits.words();
  // Entries settle from the top down, so each output word fills from its
  // high end and is stored once its lowest index settles.
  std::uint64_t word = 0;
  view.perm = shuffle(seed, n, [&](std::size_t i, std::uint32_t pos) {
    view.inv[pos] = static_cast<std::uint32_t>(i);
    word = word << 1 | ((in[pos >> 6] >> (pos & 63)) & 1);
    if (i % 64 == 0) {
      out[i / 64] = word;
      word = 0;
    }
  });
  return view;
}

qkd::BitVector permuted_bits(std::uint32_t seed, const qkd::BitVector& bits) {
  // The shuffle's swaps applied to the bits' values, one byte each, rather
  // than to their positions: the same draws leave value bits[perm[i]] at
  // index i, with no position looked up and a quarter of the memory moved.
  const std::size_t n = bits.size();
  const std::size_t groups = (n + 7) / 8;
  std::vector<std::uint8_t> values(8 * groups);
  const auto in = bits.words();
  for (std::size_t g = 0; g < groups; ++g) {
    // Byte g of the string, a bit to a byte: the product puts bit b in
    // byte b at weight 2^b, and adding 0x7f carries it to the byte's top.
    const std::uint64_t byte = (in[g / 8] >> (8 * (g % 8))) & 0xff;
    const std::uint64_t picked =
        (byte * 0x0101010101010101ULL) & 0x8040201008040201ULL;
    const std::uint64_t spread =
        ((picked + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
    for (std::size_t b = 0; b < 8; ++b)
      values[8 * g + b] = static_cast<std::uint8_t>(spread >> (8 * b));
  }
  std::fill(values.begin() + static_cast<std::ptrdiff_t>(n), values.end(), 0);
  qkd::Rng rng = shuffle_rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(values[i - 1], values[rng.next_below(i)]);
  // Back to bits eight bytes at a time: the product gathers byte b's 0/1
  // into bit 56 + b.
  qkd::BitVector out(n);
  const auto words = out.words();
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t group = 0;
    for (std::size_t b = 0; b < 8; ++b)
      group |= std::uint64_t{values[8 * g + b]} << (8 * b);
    words[g / 8] |= ((group * 0x0102040810204080ULL) >> 56) << (8 * (g % 8));
  }
  return out;
}

bool parity_of_members(const qkd::BitVector& bits,
                       const std::vector<std::uint32_t>& members,
                       std::size_t begin, std::size_t end) {
  if (begin > end || end > members.size())
    throw std::out_of_range("parity_of_members: bad range");
  bool p = false;
  for (std::size_t i = begin; i < end; ++i) p ^= bits.get(members[i]);
  return p;
}

qkd::BitVector gather_members(const qkd::BitVector& bits,
                              const std::vector<std::uint32_t>& members) {
  // Branch-free, a word of output at a time: the member bits are random.
  qkd::BitVector out(members.size());
  const auto in = bits.words();
  const auto words = out.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t base = 64 * w;
    const std::size_t count = std::min<std::size_t>(64, members.size() - base);
    std::uint64_t acc = 0;
    for (std::size_t b = 0; b < count; ++b) {
      const std::uint32_t m = members[base + b];
      if (m >= bits.size())
        throw std::out_of_range("gather_members: member past the string");
      acc |= ((in[m >> 6] >> (m & 63)) & 1) << b;
    }
    words[w] = acc;
  }
  return out;
}

bool bisect_level(std::span<RangeSearch> searches, ParityOracle& alice,
                  EcStats& stats) {
  std::vector<ParityQuery> batch;
  std::vector<RangeSearch*> open;
  for (RangeSearch& s : searches) {
    if (s.done()) continue;
    open.push_back(&s);
    batch.push_back({s.kind, s.seed, static_cast<std::uint32_t>(s.lo),
                     static_cast<std::uint32_t>(s.lo + (s.hi - s.lo) / 2)});
  }
  if (batch.empty()) return false;
  const qkd::BitVector alice_left = alice.parities(batch);
  stats.parity_queries += batch.size();
  for (std::size_t i = 0; i < open.size(); ++i) {
    RangeSearch& s = *open[i];
    const std::size_t mid = batch[i].end;
    // The odd-difference half is the left one iff the left parities differ.
    if (alice_left.get(i) != s.bob->range_parity(s.lo, mid))
      s.hi = mid;
    else
      s.lo = mid;
  }
  return true;
}

LocalParityOracle::LocalParityOracle(const qkd::BitVector& bits)
    : bits_(bits) {}

const qkd::BitVector& LocalParityOracle::gathered(const ParityQuery& query) {
  for (auto it = cache_.rbegin(); it != cache_.rend(); ++it)
    if (it->kind == query.kind && it->seed == query.seed) return it->bits;
  if (cache_.size() >= 256) cache_.erase(cache_.begin());
  cache_.push_back(
      {query.kind, query.seed,
       query.kind == ParityQuery::Kind::kLfsrSubset
           ? gather_members(bits_, lfsr_members(query.seed, bits_.size()))
           : permuted_bits(query.seed, bits_)});
  return cache_.back().bits;
}

std::optional<qkd::BitVector> LocalParityOracle::answer(
    std::span<const ParityQuery> queries) {
  // Each query's string is looked up once, and its range checked there;
  // nothing counts as disclosed until every range has passed.
  qkd::BitVector answers(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ParityQuery& q = queries[i];
    const qkd::BitVector& subset = gathered(q);
    if (q.begin > q.end || q.end > subset.size()) return std::nullopt;
    if (subset.range_parity(q.begin, q.end)) answers.set(i, true);
  }
  disclosed_ += queries.size();
  ++exchanges_;
  return answers;
}

qkd::BitVector LocalParityOracle::parities(
    std::span<const ParityQuery> queries) {
  auto answers = answer(queries);
  if (!answers.has_value())
    throw std::out_of_range("LocalParityOracle: range outside its subset");
  return std::move(*answers);
}

}  // namespace qkd::proto
