#include "src/keystore/key_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace qkd::keystore {
namespace {

const char* site_or_unspecified(const char* site) {
  return site != nullptr ? site : "(unspecified)";
}

void check_lane(unsigned lane) {
  if (lane >= KeySupply::kLaneCount)
    throw std::invalid_argument("KeyPool: lane must be < kLaneCount");
}

}  // namespace

const char* KeyPool::mode_name(Mode mode) {
  switch (mode) {
    case Mode::kUnset: return "unset";
    case Mode::kLinear: return "linear FIFO";
    case Mode::kLaned: return "Qblock/lane";
  }
  return "?";
}

void KeyPool::require_mode(Mode wanted, const char* op, const char* site) {
  if (mode_ == Mode::kUnset) {
    mode_ = wanted;
    mode_site_ = site_or_unspecified(site);
    return;
  }
  if (mode_ == wanted) return;
  throw std::logic_error(
      "KeyPool[" + (label_.empty() ? "unlabelled" : label_) + "]: " + op +
      " uses " + mode_name(wanted) + " framing, but this pool is in " +
      mode_name(mode_) + " mode (framing fixed by the first call from " +
      mode_site_ + "; this call from " + site_or_unspecified(site) +
      "); Qblock/lane and linear FIFO framing cannot be mixed on one pool");
}

void KeyPool::deposit(const qkd::BitVector& bits) {
  const std::size_t before = available_bits();
  pool_.append(bits);
  stats_.bits_deposited += bits.size();
  signal_availability(before, available_bits());
}

std::size_t KeyPool::available_bits() const {
  const std::size_t total = base_bits_ + pool_.size();
  if (mode_ == Mode::kLinear) return total - linear_cursor_;
  if (mode_ == Mode::kUnset) return total;
  // Laned mode: bits in complete, unreserved blocks of both lanes.
  std::size_t blocks = 0;
  for (unsigned lane = 0; lane < kLaneCount; ++lane)
    blocks += available_qblocks(lane);
  return blocks * kQblockBits;
}

std::size_t KeyPool::available_qblocks(unsigned lane) const {
  check_lane(lane);
  const std::size_t total_blocks = (base_bits_ + pool_.size()) / kQblockBits;
  // Lane-local block k occupies absolute block kLaneCount*k + lane.
  const std::size_t lane_blocks =
      total_blocks > lane
          ? (total_blocks - lane + kLaneCount - 1) / kLaneCount
          : 0;
  const std::size_t fresh =
      lane_blocks > lane_next_[lane] ? lane_blocks - lane_next_[lane] : 0;
  return fresh + lane_released_[lane].size();
}

qkd::BitVector KeyPool::lane_block_bits(std::size_t lane_index,
                                        unsigned lane) const {
  const std::size_t abs_block = kLaneCount * lane_index + lane;
  const std::size_t abs_bit = abs_block * kQblockBits;
  return pool_.slice(abs_bit - base_bits_, kQblockBits);
}

std::optional<KeyBlock> KeyPool::reserve_qblocks(std::size_t count,
                                                 unsigned lane,
                                                 const char* site) {
  check_lane(lane);
  if (count == 0) return KeyBlock{};
  require_mode(Mode::kLaned, "reserve_qblocks", site);
  if (available_qblocks(lane) < count) {
    ++stats_.failed_withdrawals;
    signal_exhausted(count * kQblockBits, available_bits());
    return std::nullopt;
  }
  const std::size_t before = available_bits();

  Reservation reservation;
  reservation.lane = lane;
  reservation.blocks.reserve(count);
  // Released blocks are re-served first (lowest index first); they always
  // precede lane_next_, so the collected indices come out ascending.
  auto& released = lane_released_[lane];
  while (reservation.blocks.size() < count && !released.empty()) {
    reservation.blocks.push_back(*released.begin());
    released.erase(released.begin());
  }
  while (reservation.blocks.size() < count)
    reservation.blocks.push_back(lane_next_[lane]++);

  KeyBlock block;
  block.key_id = next_key_id_++;
  for (std::size_t index : reservation.blocks)
    block.bits.append(lane_block_bits(index, lane));
  reservation.bits = block.bits.size();
  stats_.bits_reserved += reservation.bits;
  reservations_[block.key_id] = std::move(reservation);
  signal_availability(before, available_bits());
  return block;
}

std::optional<KeyBlock> KeyPool::request_qblocks(std::size_t count,
                                                 unsigned lane,
                                                 const char* site) {
  auto block = reserve_qblocks(count, lane, site);
  if (!block.has_value() || block->key_id == 0) return block;
  acknowledge(block->key_id);
  return block;
}

std::optional<KeyBlock> KeyPool::request_bits(std::size_t bits,
                                              const char* site) {
  if (bits == 0) return KeyBlock{};
  require_mode(Mode::kLinear, "request_bits", site);
  if (bits > base_bits_ + pool_.size() - linear_cursor_) {
    ++stats_.failed_withdrawals;
    signal_exhausted(bits, available_bits());
    return std::nullopt;
  }
  const std::size_t before = available_bits();
  KeyBlock block;
  block.key_id = next_key_id_++;
  block.bits = pool_.slice(linear_cursor_ - base_bits_, bits);
  linear_cursor_ += bits;
  stats_.bits_withdrawn += bits;
  compact();
  signal_availability(before, available_bits());
  return block;
}

void KeyPool::acknowledge(std::uint64_t key_id) {
  const auto it = reservations_.find(key_id);
  if (it == reservations_.end())
    throw std::invalid_argument(
        "KeyPool[" + (label_.empty() ? "unlabelled" : label_) +
        "]: acknowledge of unknown or already settled key_id " +
        std::to_string(key_id));
  const Reservation& reservation = it->second;
  stats_.bits_withdrawn += reservation.bits;
  stats_.qblocks_withdrawn += reservation.blocks.size();
  stats_.bits_reserved -= reservation.bits;
  reservations_.erase(it);
  compact();
}

void KeyPool::release(std::uint64_t key_id) {
  const auto it = reservations_.find(key_id);
  if (it == reservations_.end())
    throw std::invalid_argument(
        "KeyPool[" + (label_.empty() ? "unlabelled" : label_) +
        "]: release of unknown or already settled key_id " +
        std::to_string(key_id));
  const std::size_t before = available_bits();
  const Reservation& reservation = it->second;
  for (std::size_t index : reservation.blocks)
    lane_released_[reservation.lane].insert(index);
  stats_.bits_released += reservation.bits;
  stats_.bits_reserved -= reservation.bits;
  reservations_.erase(it);
  signal_availability(before, available_bits());
}

void KeyPool::compact() {
  // Everything before the earliest live bit can be dropped. Released and
  // still-reserved blocks are live: release() must be able to re-serve the
  // original bits.
  std::size_t keep_from;
  if (mode_ == Mode::kLinear) {
    keep_from = linear_cursor_;
  } else if (mode_ == Mode::kLaned) {
    keep_from = SIZE_MAX;
    for (unsigned lane = 0; lane < kLaneCount; ++lane) {
      std::size_t frontier = lane_next_[lane];
      if (!lane_released_[lane].empty())
        frontier = std::min(frontier, *lane_released_[lane].begin());
      for (const auto& [id, reservation] : reservations_) {
        if (reservation.lane == lane && !reservation.blocks.empty())
          frontier = std::min(frontier, reservation.blocks.front());
      }
      keep_from = std::min(keep_from,
                           (kLaneCount * frontier + lane) * kQblockBits);
    }
  } else {
    return;
  }
  if (keep_from <= base_bits_) return;
  const std::size_t drop = keep_from - base_bits_;
  // Dropping only when the dead prefix is over half the pool keeps the copy
  // amortised O(1) a bit. The 64 Kbit floor bounds the spent key a pool
  // keeps resident: the KMS holds two mirror pools per pair, so a fleet's
  // dead prefixes add up (at a 1 Mbit floor, up to 4 MB over 32 pools).
  if (drop > (1 << 16) && drop > pool_.size() / 2) {
    pool_ = pool_.slice(drop, pool_.size() - drop);
    base_bits_ = keep_from;
  }
}

}  // namespace qkd::keystore
