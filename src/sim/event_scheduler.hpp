// Discrete-event simulation core.
//
// An EventScheduler owns the ordering of everything that happens on one
// virtual timeline: callbacks are scheduled at absolute times (at), relative
// delays (after) or fixed periods (every), kept in a binary heap keyed by
// {SimTime, sequence number}, and dispatched in strict time order — ties
// break FIFO by schedule order, so two events armed for the same instant
// always fire in the order they were armed, regardless of heap internals.
// Dispatch advances the shared SimClock to each event's timestamp, so a
// callback always observes now() == its own due time.
//
// Handles returned by the schedule calls cancel events (including periodic
// timers, including from inside their own callback). Cancellation is lazy:
// the heap entry stays behind and is skipped when popped, so cancel() is
// O(1) rather than a heap rebuild.
//
// Live events sit in a slot table indexed by their id: an id is
// `generation << 32 | (slot + 1)`, and a slot's generation moves on when
// its event ends, so a stale Handle or a cancelled heap entry never matches
// the slot's next event. Finding an event is one index and one compare.
//
// This is the substrate the scenario layer (src/sim/scenario.hpp) scripts
// against, and what the formerly step-driven layers (LinkKeyService batch
// completions, gateway rekey/retransmit deadlines) now schedule onto.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "src/common/sim_clock.hpp"

namespace qkd::sim {

class EventScheduler {
 public:
  /// Invoked with the simulation time the event was due (== clock.now()).
  using Callback = std::function<void(SimTime)>;

  /// Cancellation token. Default-constructed handles are inert.
  class Handle {
   public:
    Handle() = default;
    bool valid() const { return id_ != 0; }

   private:
    friend class EventScheduler;
    explicit Handle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
  };

  /// The scheduler advances `clock` as it dispatches; the clock must outlive
  /// the scheduler and must not be advanced behind its back past a pending
  /// event (the strict SimClock would then refuse the dispatch).
  explicit EventScheduler(SimClock& clock) : clock_(clock) {}

  // ---- Scheduling ---------------------------------------------------------
  /// One-shot at absolute time `when`; `when` may equal now() (the event
  /// fires on the next dispatch) but may not precede it.
  Handle at(SimTime when, Callback callback);

  /// One-shot `delay` after now(); delay must be >= 0.
  Handle after(SimTime delay, Callback callback);

  /// Periodic: first fires at now() + first_after, then every `period`
  /// (period > 0) until cancelled.
  Handle every(SimTime first_after, SimTime period, Callback callback);

  /// Cancels a pending event or live periodic timer; safe from inside the
  /// event's own callback. Returns false if the handle was invalid, already
  /// fired (one-shots), or already cancelled.
  bool cancel(Handle handle);

  // ---- Dispatch -----------------------------------------------------------
  /// Dispatches every event due at or before `until` in timestamp order,
  /// then advances the clock to exactly `until`. Events scheduled during
  /// dispatch participate (a callback arming an event inside the window gets
  /// it dispatched in this same call). Returns the number dispatched.
  std::size_t run_until(SimTime until);

  /// run_until(now() + duration).
  std::size_t run_for(SimTime duration) {
    return run_until(clock_.now() + duration);
  }

  /// Dispatches the single next pending event (advancing the clock to it);
  /// false when nothing is pending.
  bool run_one();

  // ---- Introspection ------------------------------------------------------
  SimTime now() const { return clock_.now(); }
  SimClock& clock() { return clock_; }
  std::size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Due time of the next live event, if any.
  std::optional<SimTime> next_time() const;
  /// Total events dispatched over the scheduler's lifetime (bench counter).
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  struct HeapEntry {
    SimTime time = 0;
    std::uint64_t seq = 0;  // schedule order: the FIFO tiebreak
    std::uint64_t id = 0;
    bool operator>(const HeapEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct Slot {
    Callback callback;
    SimTime period = 0;  // 0: one-shot
    std::uint32_t generation = 0;  // of the event the slot holds or will hold
    // Set while the callback runs (nested run_one()/run_until() from inside
    // a callback may run others). cancel() of a running event sets
    // `cancelled` instead of retiring the slot, which would destroy the
    // std::function mid-call; dispatch() retires it on unwind.
    bool running = false;
    bool cancelled = false;
  };

  Handle schedule(SimTime when, SimTime period, Callback callback);
  /// Drops lazily-cancelled entries off the heap top (they are dead weight;
  /// removing them never changes observable order). Safe from const
  /// introspection, hence the mutable heap.
  void prune_cancelled_top() const;
  /// Pops heap entries until one refers to a live event; nullopt when the
  /// heap drains.
  std::optional<HeapEntry> pop_live();
  void dispatch(const HeapEntry& entry);
  static std::uint32_t slot_index(std::uint64_t id) {
    return static_cast<std::uint32_t>(id) - 1;
  }
  /// Whether `id` still names a live event (false once it has ended).
  bool is_live(std::uint64_t id) const;
  /// Ends the live event `id`: drops its callback, moves the slot's
  /// generation on and frees the slot for reuse.
  void retire(std::uint64_t id);

  SimClock& clock_;
  mutable std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                              std::greater<>>
      heap_;
  // Live events by slot. A deque keeps each Slot in place while a callback
  // schedules more events during its own dispatch.
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // live (non-cancelled) events
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace qkd::sim
