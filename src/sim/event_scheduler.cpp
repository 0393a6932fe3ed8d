#include "src/sim/event_scheduler.hpp"

#include <stdexcept>
#include <string>

namespace qkd::sim {

EventScheduler::Handle EventScheduler::schedule(SimTime when, SimTime period,
                                                Callback callback) {
  if (when < clock_.now())
    throw std::invalid_argument(
        "EventScheduler: scheduling at " + std::to_string(when) +
        " ns, before now (" + std::to_string(clock_.now()) + " ns)");
  if (!callback)
    throw std::invalid_argument("EventScheduler: empty callback");
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.callback = std::move(callback);
  slot.period = period;
  ++live_;
  const std::uint64_t id =
      (std::uint64_t{slot.generation} << 32) | (std::uint64_t{index} + 1);
  heap_.push(HeapEntry{when, next_seq_++, id});
  return Handle(id);
}

bool EventScheduler::is_live(std::uint64_t id) const {
  const std::uint32_t index = slot_index(id);
  return index < slots_.size() && slots_[index].generation == (id >> 32);
}

void EventScheduler::retire(std::uint64_t id) {
  const std::uint32_t index = slot_index(id);
  Slot& slot = slots_[index];
  slot.callback = nullptr;
  slot.running = slot.cancelled = false;
  ++slot.generation;
  free_slots_.push_back(index);
  --live_;
}

EventScheduler::Handle EventScheduler::at(SimTime when, Callback callback) {
  return schedule(when, 0, std::move(callback));
}

EventScheduler::Handle EventScheduler::after(SimTime delay,
                                             Callback callback) {
  if (delay < 0)
    throw std::invalid_argument("EventScheduler::after: negative delay " +
                                std::to_string(delay) + " ns");
  return schedule(clock_.now() + delay, 0, std::move(callback));
}

EventScheduler::Handle EventScheduler::every(SimTime first_after,
                                             SimTime period,
                                             Callback callback) {
  if (first_after < 0)
    throw std::invalid_argument(
        "EventScheduler::every: negative first_after " +
        std::to_string(first_after) + " ns");
  if (period <= 0)
    throw std::invalid_argument("EventScheduler::every: period must be > 0");
  return schedule(clock_.now() + first_after, period, std::move(callback));
}

bool EventScheduler::cancel(Handle handle) {
  if (!handle.valid() || !is_live(handle.id_)) return false;
  Slot& slot = slots_[slot_index(handle.id_)];
  if (slot.running) {
    const bool was_live = !slot.cancelled;
    slot.cancelled = true;
    return was_live;
  }
  retire(handle.id_);
  return true;
}

void EventScheduler::prune_cancelled_top() const {
  while (!heap_.empty() && !is_live(heap_.top().id)) heap_.pop();
}

std::optional<SimTime> EventScheduler::next_time() const {
  prune_cancelled_top();
  if (heap_.empty()) return std::nullopt;
  return heap_.top().time;
}

std::optional<EventScheduler::HeapEntry> EventScheduler::pop_live() {
  prune_cancelled_top();
  if (heap_.empty()) return std::nullopt;
  const HeapEntry top = heap_.top();
  heap_.pop();
  return top;
}

void EventScheduler::dispatch(const HeapEntry& entry) {
  clock_.advance_to(entry.time);
  Slot& slot = slots_[slot_index(entry.id)];  // live: the caller pruned
  slot.running = true;
  try {
    slot.callback(clock_.now());
  } catch (...) {
    retire(entry.id);  // a throwing event does not re-arm
    throw;
  }
  slot.running = false;
  ++dispatched_;
  // The callback may have scheduled or dispatched around us, but this
  // event's slot survives (cancel() of a running event is deferred), and
  // the deque only grows at its end, so `slot` still refers to it.
  if (slot.cancelled || slot.period == 0) {
    retire(entry.id);
    return;
  }
  heap_.push(HeapEntry{entry.time + slot.period, next_seq_++, entry.id});
}

std::size_t EventScheduler::run_until(SimTime until) {
  if (until < clock_.now())
    throw std::invalid_argument(
        "EventScheduler::run_until: target precedes now");
  std::size_t count = 0;
  for (;;) {
    prune_cancelled_top();
    if (heap_.empty() || heap_.top().time > until) break;
    const HeapEntry entry = heap_.top();
    heap_.pop();
    dispatch(entry);
    ++count;
  }
  // A nested run_one()/run_until() inside a callback may already have
  // carried the clock past this horizon; landing on it is then a no-op.
  if (until > clock_.now()) clock_.advance_to(until);
  return count;
}

bool EventScheduler::run_one() {
  const auto entry = pop_live();
  if (!entry.has_value()) return false;
  dispatch(*entry);
  return true;
}

}  // namespace qkd::sim
