// EventScheduler: ordering, FIFO tie-breaks, periodic timers, cancellation
// (including self-cancellation from inside a callback), and clock coupling.
#include "src/sim/event_scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace qkd::sim {
namespace {

TEST(EventScheduler, DispatchesInTimeOrderAndAdvancesClock) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<std::string> log;
  sched.at(3 * kSecond, [&](SimTime t) {
    EXPECT_EQ(t, 3 * kSecond);
    EXPECT_EQ(clock.now(), 3 * kSecond);
    log.push_back("c");
  });
  sched.at(kSecond, [&](SimTime) { log.push_back("a"); });
  sched.after(2 * kSecond, [&](SimTime) { log.push_back("b"); });
  EXPECT_EQ(sched.run_until(10 * kSecond), 3u);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(clock.now(), 10 * kSecond) << "run_until lands on the horizon";
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, SameInstantTiesBreakInScheduleOrder) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    sched.at(kSecond, [&order, i](SimTime) { order.push_back(i); });
  sched.run_until(kSecond);
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventScheduler, SchedulingInThePastThrows) {
  SimClock clock;
  clock.advance(5 * kSecond);
  EventScheduler sched(clock);
  EXPECT_THROW(sched.at(4 * kSecond, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(sched.after(-1, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(sched.every(0, 0, [](SimTime) {}), std::invalid_argument);
  // Scheduling AT the current instant is legal: fires on the next dispatch.
  bool fired = false;
  sched.at(5 * kSecond, [&](SimTime) { fired = true; });
  sched.run_until(5 * kSecond);
  EXPECT_TRUE(fired);
}

TEST(EventScheduler, PeriodicTimerFiresEveryPeriodUntilCancelled) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<SimTime> fires;
  const auto handle =
      sched.every(kSecond, 2 * kSecond, [&](SimTime t) { fires.push_back(t); });
  sched.run_until(6 * kSecond);  // fires at 1, 3, 5
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], kSecond);
  EXPECT_EQ(fires[1], 3 * kSecond);
  EXPECT_EQ(fires[2], 5 * kSecond);
  EXPECT_TRUE(sched.cancel(handle));
  EXPECT_EQ(sched.run_until(20 * kSecond), 0u);
  EXPECT_EQ(fires.size(), 3u);
}

TEST(EventScheduler, CancelledOneShotNeverFiresAndCancelIsIdempotent) {
  SimClock clock;
  EventScheduler sched(clock);
  bool fired = false;
  const auto handle = sched.at(kSecond, [&](SimTime) { fired = true; });
  EXPECT_TRUE(sched.cancel(handle));
  EXPECT_FALSE(sched.cancel(handle)) << "second cancel reports nothing live";
  EXPECT_FALSE(sched.cancel(EventScheduler::Handle())) << "inert handle";
  sched.run_until(5 * kSecond);
  EXPECT_FALSE(fired);
}

TEST(EventScheduler, PeriodicCanCancelItselfFromItsOwnCallback) {
  SimClock clock;
  EventScheduler sched(clock);
  int fires = 0;
  EventScheduler::Handle handle;
  handle = sched.every(kSecond, kSecond, [&](SimTime) {
    if (++fires == 3) sched.cancel(handle);
  });
  sched.run_until(kMinute);
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, CallbackMayScheduleWithinTheRunningWindow) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<std::string> log;
  sched.at(kSecond, [&](SimTime t) {
    log.push_back("first");
    sched.at(t + kSecond, [&](SimTime) { log.push_back("chained"); });
    sched.at(t, [&](SimTime) { log.push_back("same-instant"); });
  });
  EXPECT_EQ(sched.run_until(3 * kSecond), 3u)
      << "events armed during dispatch join this run";
  EXPECT_EQ(log,
            (std::vector<std::string>{"first", "same-instant", "chained"}));
}

TEST(EventScheduler, NestedDispatchMayCancelTheOuterEventSafely) {
  // A periodic event nests a dispatch (run_one) whose inner callback
  // cancels the *outer*, still-executing event: the outer callback's
  // std::function must survive its own call, and the timer must not
  // re-arm.
  SimClock clock;
  EventScheduler sched(clock);
  int outer_fires = 0;
  int inner_fires = 0;
  EventScheduler::Handle outer;
  outer = sched.every(kSecond, kSecond, [&](SimTime t) {
    ++outer_fires;
    sched.at(t, [&](SimTime) {
      ++inner_fires;
      sched.cancel(outer);
    });
    EXPECT_TRUE(sched.run_one());  // nested dispatch of the inner event
  });
  sched.run_until(kMinute);
  EXPECT_EQ(outer_fires, 1);
  EXPECT_EQ(inner_fires, 1);
  EXPECT_TRUE(sched.empty()) << "cancelled-while-executing timer must not re-arm";
}

TEST(EventScheduler, ThrowingCallbackIsRetiredAndSchedulerStaysUsable) {
  SimClock clock;
  EventScheduler sched(clock);
  sched.every(kSecond, kSecond, [](SimTime) {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(sched.run_until(5 * kSecond), std::runtime_error);
  // The throwing event was retired (no re-arm), the clock stopped at the
  // failure instant, and fresh events still dispatch.
  EXPECT_EQ(clock.now(), kSecond);
  bool fired = false;
  sched.at(2 * kSecond, [&](SimTime) { fired = true; });
  sched.run_until(5 * kSecond);
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, NestedDispatchPastTheOuterHorizonIsTolerated) {
  // A callback nests run_one() while the next pending event lies beyond
  // the outer run_until horizon: the nested dispatch carries the clock past
  // it, and the outer call's final landing must be a no-op, not an error.
  SimClock clock;
  EventScheduler sched(clock);
  bool late_fired = false;
  sched.at(10 * kSecond, [&](SimTime) {
    sched.at(80 * kSecond, [&](SimTime) { late_fired = true; });
    EXPECT_TRUE(sched.run_one());
  });
  EXPECT_EQ(sched.run_until(50 * kSecond), 1u);
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(clock.now(), 80 * kSecond);
}

TEST(EventScheduler, RunOneAndNextTimeSkipCancelledEntries) {
  SimClock clock;
  EventScheduler sched(clock);
  bool fired = false;
  const auto dead = sched.at(kSecond, [](SimTime) { FAIL(); });
  sched.at(2 * kSecond, [&](SimTime) { fired = true; });
  sched.cancel(dead);
  ASSERT_TRUE(sched.next_time().has_value());
  EXPECT_EQ(*sched.next_time(), 2 * kSecond);
  EXPECT_TRUE(sched.run_one());
  EXPECT_TRUE(fired);
  EXPECT_EQ(clock.now(), 2 * kSecond);
  EXPECT_FALSE(sched.run_one());
  EXPECT_FALSE(sched.next_time().has_value());
}

TEST(EventScheduler, RunUntilStopsAtHorizonLeavingLaterEventsPending) {
  SimClock clock;
  EventScheduler sched(clock);
  int fired = 0;
  sched.at(kSecond, [&](SimTime) { ++fired; });
  sched.at(3 * kSecond, [&](SimTime) { ++fired; });
  EXPECT_EQ(sched.run_until(2 * kSecond), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.run_until(3 * kSecond), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_THROW(sched.run_until(kSecond), std::invalid_argument)
      << "horizons never move backwards";
}

TEST(EventScheduler, StaleHandleCannotTouchAReusedSlot) {
  // A slot freed by an ended event goes to the next schedule call. The
  // handle of the event that ended there, and a cancelled event's heap
  // entry still queued, must not reach the slot's new event.
  SimClock clock;
  EventScheduler sched(clock);
  const auto fired = sched.at(kSecond, [](SimTime) {});
  sched.run_until(kSecond);
  std::vector<SimTime> first_reuse;
  sched.at(3 * kSecond, [&](SimTime t) { first_reuse.push_back(t); });
  EXPECT_FALSE(sched.cancel(fired)) << "the one-shot already fired";

  const auto doomed = sched.at(2 * kSecond, [](SimTime) { FAIL(); });
  EXPECT_TRUE(sched.cancel(doomed));  // its heap entry at 2 s stays queued
  std::vector<SimTime> second_reuse;
  sched.at(4 * kSecond, [&](SimTime t) { second_reuse.push_back(t); });
  EXPECT_FALSE(sched.cancel(doomed)) << "already cancelled";

  EXPECT_EQ(sched.pending(), 2u);
  ASSERT_TRUE(sched.next_time().has_value());
  EXPECT_EQ(*sched.next_time(), 3 * kSecond) << "the 2 s entry is dead";
  EXPECT_EQ(sched.run_until(10 * kSecond), 2u);
  EXPECT_EQ(first_reuse, (std::vector<SimTime>{3 * kSecond}));
  EXPECT_EQ(second_reuse, (std::vector<SimTime>{4 * kSecond}));
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, CallbackThatSchedulesThousandsStaysValid) {
  // A periodic callback arms 5,000 one-shots while it runs, so the slot
  // table grows under it; its own captures and re-arm must survive.
  SimClock clock;
  EventScheduler sched(clock);
  const std::string tag(64, 'p');  // a heap-held capture
  std::vector<SimTime> ticks;
  std::size_t shots = 0;
  sched.every(kSecond, kSecond, [&sched, &ticks, &shots, tag](SimTime t) {
    for (SimTime i = 1; i <= 5000; ++i)
      sched.at(t + i, [&shots](SimTime) { ++shots; });
    EXPECT_EQ(tag, std::string(64, 'p'));
    ticks.push_back(t);
  });
  EXPECT_EQ(sched.run_until(3 * kSecond + kMillisecond), 3u + 15000u);
  EXPECT_EQ(ticks,
            (std::vector<SimTime>{kSecond, 2 * kSecond, 3 * kSecond}));
  EXPECT_EQ(shots, 15000u);
  EXPECT_EQ(sched.pending(), 1u) << "only the periodic timer is left";
}

TEST(EventScheduler, TwoPeriodicTimersInterleaveDeterministically) {
  SimClock clock;
  EventScheduler sched(clock);
  std::vector<std::string> log;
  sched.every(kSecond, kSecond, [&](SimTime) { log.push_back("fast"); });
  sched.every(2 * kSecond, 2 * kSecond, [&](SimTime) { log.push_back("slow"); });
  sched.run_until(4 * kSecond);
  // Each firing re-arms with a fresh sequence number, so at a shared
  // instant the timer armed longest ago fires first: t=1 fast; t=2 slow
  // (armed at 0) before fast (re-armed at 1); t=3 fast; t=4 slow before
  // fast.
  EXPECT_EQ(log, (std::vector<std::string>{"fast", "slow", "fast", "fast",
                                           "slow", "fast"}));
  EXPECT_EQ(sched.dispatched(), 6u);
}

}  // namespace
}  // namespace qkd::sim
