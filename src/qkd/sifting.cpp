#include "src/qkd/sifting.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

namespace qkd::proto {
namespace {

std::uint64_t basis_bit(qkd::optics::Basis basis) {
  return static_cast<std::uint64_t>(basis);
}

/// One side's sifted bits, gathered without a branch on the keep bit:
/// the outputs are sized for all n clicks, every click is written at the
/// next free position, and that position advances by the click's keep bit.
class KeptClicks {
 public:
  explicit KeptClicks(std::size_t n)
      : out_{.bits = qkd::BitVector(n),
             .slot_indices = std::vector<std::uint32_t>(n)} {}

  void add(std::uint32_t slot, bool value, std::uint64_t keep) {
    out_.slot_indices[kept_] = slot;
    out_.bits.words()[kept_ >> 6] |= (std::uint64_t{value} & keep)
                                     << (kept_ & 63);
    kept_ += keep;
  }

  SiftOutcome take() && {
    out_.bits.resize(kept_);
    out_.slot_indices.resize(kept_);
    return std::move(out_);
  }

 private:
  SiftOutcome out_;
  std::size_t kept_ = 0;
};

}  // namespace

wire::SiftAnnounce make_sift_announce(std::uint64_t frame_id,
                                      const qkd::optics::FrameResult& frame) {
  const std::size_t n = frame.clicks.size();
  wire::SiftAnnounce announce{.frame_id = frame_id,
                              .slots = frame.slots,
                              .clicks = std::vector<std::uint32_t>(n),
                              .bob_bases = qkd::BitVector(n)};
  const std::span<std::uint64_t> bases = announce.bob_bases.words();
  // One word of Bob's bases per 64 clicks, built in a register.
  for (std::size_t w = 0; w < bases.size(); ++w) {
    std::uint64_t word = 0;
    for (std::size_t i = w * 64; i < std::min(n, w * 64 + 64); ++i) {
      const qkd::optics::Click& click = frame.clicks[i];
      announce.clicks[i] = click.slot;
      word |= basis_bit(click.bob_basis) << (i & 63);
    }
    bases[w] = word;
  }
  return announce;
}

AliceSiftResult alice_sift(const qkd::optics::FrameResult& frame,
                           const wire::SiftAnnounce& announce) {
  if (announce.slots != frame.slots)
    throw std::invalid_argument("alice_sift: frame size mismatch");
  const std::size_t n = announce.clicks.size();
  if (announce.bob_bases.size() != n)
    throw std::invalid_argument("alice_sift: one basis per click");
  AliceSiftResult result;
  result.decision.frame_id = announce.frame_id;
  result.decision.keep = qkd::BitVector(n);
  const std::span<const std::uint64_t> bob_bases = announce.bob_bases.words();
  const std::span<std::uint64_t> keep = result.decision.keep.words();
  KeptClicks kept(n);
  // Both lists are sorted: advance to each announced slot. Bob announces
  // every click, so the inner walk steps once per slot; only an announce
  // naming a subset of Alice's clicks makes it skip.
  auto mine = frame.clicks.begin();
  for (std::size_t w = 0; w < keep.size(); ++w) {
    std::uint64_t keep_word = 0;
    for (std::size_t i = w * 64; i < std::min(n, w * 64 + 64); ++i) {
      const std::uint32_t slot = announce.clicks[i];
      while (mine != frame.clicks.end() && mine->slot < slot) ++mine;
      if (mine == frame.clicks.end() || mine->slot != slot)
        throw std::invalid_argument(
            "alice_sift: announced slot did not click");
      const std::uint64_t match =
          1 ^ basis_bit(mine->alice_basis) ^ ((bob_bases[w] >> (i & 63)) & 1);
      keep_word |= match << (i & 63);
      kept.add(slot, mine->alice_value, match);
    }
    keep[w] = keep_word;
  }
  result.outcome = std::move(kept).take();
  return result;
}

SiftOutcome bob_apply_response(const qkd::optics::FrameResult& frame,
                               const wire::SiftAnnounce& announce,
                               const wire::SiftDecision& decision) {
  const std::size_t n = frame.clicks.size();
  if (announce.clicks.size() != n)
    throw std::invalid_argument("bob_apply_response: click count mismatch");
  if (decision.keep.size() != n)
    throw std::invalid_argument("bob_apply_response: keep length mismatch");
  if (decision.frame_id != announce.frame_id)
    throw std::invalid_argument("bob_apply_response: frame id mismatch");
  const std::span<const std::uint64_t> keep = decision.keep.words();
  KeptClicks kept(n);
  for (std::size_t i = 0; i < n; ++i)
    kept.add(frame.clicks[i].slot, frame.clicks[i].bob_bit,
             (keep[i >> 6] >> (i & 63)) & 1);
  return std::move(kept).take();
}

}  // namespace qkd::proto
