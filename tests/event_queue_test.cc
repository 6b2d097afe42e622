// Tests for the simulator's generation-tagged event-slot scheme: FIFO
// ordering among same-timestamp events, cancellation life-cycle, and the
// guarantee that a stale EventId can never touch a recycled slot's new
// occupant. The engine differential at the end runs a seeded op mix on the
// real engine and on a reference model and compares dispatch sequences.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace ecnsharp {
namespace {

TEST(EventQueueTest, SameTimestampEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const Time t = Time::FromMicroseconds(10);
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAt(t, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, FifoOrderSurvivesInterleavedCancellation) {
  // Cancelling events between same-timestamp peers must not disturb the
  // schedule-order dispatch of the survivors.
  Simulator sim;
  std::vector<int> order;
  const Time t = Time::FromMicroseconds(5);
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(sim.ScheduleAt(t, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 2) sim.Cancel(ids[i]);
  sim.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], 2 * i + 1);
}

TEST(EventQueueTest, CancelAfterExecuteIsNoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id =
      sim.Schedule(Time::FromMicroseconds(1), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.live_events(), 0u);
  sim.Cancel(id);  // must not corrupt bookkeeping
  EXPECT_EQ(sim.live_events(), 0u);
  int late = 0;
  sim.Schedule(Time::FromMicroseconds(1), [&late] { ++late; });
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(late, 1);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DoubleCancelIsNoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id =
      sim.Schedule(Time::FromMicroseconds(1), [&fired] { ++fired; });
  sim.Schedule(Time::FromMicroseconds(2), [&fired] { fired += 10; });
  sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  // After an event executes or is cancelled its slot returns to a free list
  // and is handed to the next Schedule. The stale id for the old occupant
  // carries the old generation, so cancelling it must leave the new
  // occupant untouched.
  Simulator sim;
  int first = 0;
  const EventId stale =
      sim.Schedule(Time::FromMicroseconds(1), [&first] { ++first; });
  sim.Cancel(stale);  // slot goes to the free list
  int second = 0;
  const EventId fresh =
      sim.Schedule(Time::FromMicroseconds(2), [&second] { ++second; });
  // LIFO free list: the replacement reuses the same slot, differing only in
  // generation.
  EXPECT_EQ(fresh.seq & 0xffffffffu, stale.seq & 0xffffffffu);
  EXPECT_NE(fresh.seq, stale.seq);
  sim.Cancel(stale);  // stale generation: must be a no-op
  EXPECT_EQ(sim.live_events(), 1u);
  sim.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, StaleIdFromExecutedEventCannotCancelReplacement) {
  Simulator sim;
  EventId first_id;
  int second = 0;
  Simulator* psim = &sim;
  first_id = sim.Schedule(Time::FromMicroseconds(1), [psim, &first_id,
                                                      &second] {
    // The executing event's slot is already released; the next Schedule
    // recycles it. Cancelling with the executing event's own id must not
    // cancel the newcomer.
    psim->Schedule(Time::FromMicroseconds(1), [&second] { ++second; });
    psim->Cancel(first_id);
  });
  sim.Run();
  EXPECT_EQ(second, 1);
}

TEST(EventQueueTest, CancelDuringRunPreservesRemainingSchedule) {
  Simulator sim;
  std::string log;
  EventId b_id;
  sim.Schedule(Time::FromMicroseconds(1), [&] {
    log += 'a';
    sim.Cancel(b_id);
  });
  b_id = sim.Schedule(Time::FromMicroseconds(2), [&] { log += 'b'; });
  sim.Schedule(Time::FromMicroseconds(3), [&] { log += 'c'; });
  sim.Run();
  EXPECT_EQ(log, "ac");
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EventQueueTest, LiveEventsAcrossMixedLifecycle) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.Schedule(Time::FromMicroseconds(1 + i), [] {}));
  }
  EXPECT_EQ(sim.live_events(), 10u);
  for (int i = 0; i < 5; ++i) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.live_events(), 5u);
  sim.RunUntil(Time::FromMicroseconds(7));
  // Events at 6 and 7 us survive cancellation and fall inside the horizon.
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.live_events(), 3u);
  sim.Run();
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(EventQueueTest, HeavyChurnReusesSlotsWithoutGrowth) {
  // A self-rescheduling timer ring should settle into a fixed set of slots;
  // live_events stays constant while generations churn.
  Simulator sim;
  int remaining = 10'000;
  struct Ticker {
    Simulator& sim;
    int& remaining;
    void operator()() const {
      if (--remaining > 0) {
        sim.Schedule(Time::Nanoseconds(100), Ticker{sim, remaining});
      }
    }
  };
  sim.Schedule(Time::Nanoseconds(100), Ticker{sim, remaining});
  sim.Run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.events_executed(), 10'000u);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(EventQueueTest, WheelEngagementPreservesExecutionOrder) {
  // Push the pending set past the wheel-engagement threshold and check the
  // executed sequence is still exactly (when, schedule-order): engagement
  // must be observationally invisible. Times deliberately mix near-horizon
  // (wheel) and far-horizon (overflow) scales, plus same-timestamp ties.
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> expected;
  std::vector<std::pair<std::int64_t, int>> actual;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 6000; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // 0..~1 ms, quantized to 100 ns so ties are common.
    const std::int64_t ns = static_cast<std::int64_t>((rng >> 33) % 10000) * 100;
    expected.emplace_back(ns, i);
    sim.ScheduleAt(Time::Nanoseconds(ns),
                   [&actual, ns, i] { actual.emplace_back(ns, i); });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.Run();
  EXPECT_EQ(actual, expected);
}

TEST(EventQueueTest, WheelModeCancellationPreservesSurvivors) {
  // Same engagement scenario, but cancel a swath after the wheel is live:
  // generation-tag staleness must work identically in bucket and overflow
  // storage.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6000; ++i) {
    const std::int64_t ns = 1000 + (i % 50) * 200;  // dense near-horizon ties
    ids.push_back(sim.ScheduleAt(Time::Nanoseconds(ns),
                                 [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 6000; i += 3) sim.Cancel(ids[i]);
  sim.Run();
  EXPECT_EQ(order.size(), 4000u);
  for (int v : order) EXPECT_NE(v % 3, 0);
  EXPECT_EQ(sim.live_events(), 0u);
}

// A pinned event is a function pointer plus its object: the callbacks below
// are captureless lambdas (which convert to PinnedFn) over a local.
TEST(EventQueueTest, PinnedEventFiresAndRearmsWithoutNewClosures) {
  struct Ticker {
    Simulator* sim;
    PinnedEventId id;
    int fires = 0;
  };
  Simulator sim;
  Ticker ticker{&sim, {}};
  ticker.id = sim.CreatePinned(
      [](void* arg) {
        Ticker& t = *static_cast<Ticker*>(arg);
        ++t.fires;
        if (t.fires < 5) {
          t.sim->SchedulePinnedAt(t.id, t.sim->Now() + Time::Nanoseconds(100));
        }
      },
      &ticker);
  const PinnedEventId tick = ticker.id;
  EXPECT_FALSE(sim.PinnedArmed(tick));
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(100));
  EXPECT_TRUE(sim.PinnedArmed(tick));
  sim.Run();
  EXPECT_EQ(ticker.fires, 5);
  EXPECT_FALSE(sim.PinnedArmed(tick));
  EXPECT_EQ(sim.live_events(), 0u);
  sim.DestroyPinned(tick);
}

TEST(EventQueueTest, PinnedCancelDisarmsOccurrenceButKeepsRegistration) {
  Simulator sim;
  int fires = 0;
  const PinnedEventId tick =
      sim.CreatePinned([](void* n) { ++*static_cast<int*>(n); }, &fires);
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(100));
  sim.CancelPinned(tick);
  EXPECT_FALSE(sim.PinnedArmed(tick));
  EXPECT_EQ(sim.live_events(), 0u);
  sim.Run();
  EXPECT_EQ(fires, 0);
  // The registration survives: re-arming after a cancel works.
  sim.SchedulePinnedAt(tick, Time::Nanoseconds(200));
  sim.Run();
  EXPECT_EQ(fires, 1);
  sim.DestroyPinned(tick);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(EventQueueTest, PinnedAndOneShotShareFifoOrder) {
  // A pinned occurrence armed with the default (next) order stamp slots into
  // the same FIFO sequence as surrounding one-shot events.
  Simulator sim;
  std::string log;
  const Time t = Time::FromMicroseconds(1);
  sim.ScheduleAt(t, [&] { log += 'a'; });
  const PinnedEventId p = sim.CreatePinned(
      [](void* l) { *static_cast<std::string*>(l) += 'b'; }, &log);
  sim.SchedulePinnedAt(p, t);
  sim.ScheduleAt(t, [&] { log += 'c'; });
  sim.Run();
  EXPECT_EQ(log, "abc");
  sim.DestroyPinned(p);
}

TEST(EventQueueTest, ReservedOrderStampInterleavesAtReservedPosition) {
  // ReserveOrder now, schedule with it later: the event must execute where
  // the stamp was reserved, not where the schedule call happened — the
  // contract burst-batched wire delivery depends on.
  Simulator sim;
  std::string log;
  const Time t = Time::FromMicroseconds(2);
  sim.ScheduleAt(t, [&] { log += 'a'; });
  const std::uint64_t slot_b = sim.ReserveOrder();
  sim.ScheduleAt(t, [&] { log += 'c'; });
  // Scheduled last, reserved between a and c.
  sim.ScheduleAtOrdered(t, slot_b, [&] { log += 'b'; });
  const PinnedEventId p = sim.CreatePinned(
      [](void* l) { *static_cast<std::string*>(l) += 'd'; }, &log);
  const std::uint64_t slot_d = sim.ReserveOrder();
  sim.ScheduleAt(t, [&] { log += 'e'; });
  sim.SchedulePinnedAtOrdered(p, t, slot_d);
  sim.Run();
  EXPECT_EQ(log, "abcde");
  sim.DestroyPinned(p);
}

TEST(EventQueueTest, ExecuteBatchDrainsExactlyOneInstant) {
  Simulator sim;
  std::string log;
  const Time t1 = Time::FromMicroseconds(1);
  const Time t2 = Time::FromMicroseconds(2);
  sim.ScheduleAt(t1, [&] {
    log += 'a';
    // Chained same-instant work joins the batch.
    sim.ScheduleAt(t1, [&] { log += 'c'; });
  });
  sim.ScheduleAt(t1, [&] { log += 'b'; });
  sim.ScheduleAt(t2, [&] { log += 'z'; });
  EXPECT_EQ(sim.ExecuteBatch(), 3u);
  EXPECT_EQ(log, "abc");
  EXPECT_EQ(sim.Now(), t1);
  EXPECT_EQ(sim.ExecuteBatch(), 1u);
  EXPECT_EQ(log, "abcz");
  EXPECT_EQ(sim.ExecuteBatch(), 0u);
}

TEST(EventQueueTest, PeekNextTimeSkipsCancelledEvents) {
  Simulator sim;
  const EventId early = sim.Schedule(Time::FromMicroseconds(1), [] {});
  sim.Schedule(Time::FromMicroseconds(3), [] {});
  Time next;
  ASSERT_TRUE(sim.PeekNextTime(&next));
  EXPECT_EQ(next, Time::FromMicroseconds(1));
  sim.Cancel(early);
  ASSERT_TRUE(sim.PeekNextTime(&next));
  EXPECT_EQ(next, Time::FromMicroseconds(3));
  sim.Run();
  EXPECT_FALSE(sim.PeekNextTime(&next));
}

// --- Deferred-rearm Timer -------------------------------------------------

// The dumbbell keeps tens of thousands of timers alive for a whole run.
static_assert(sizeof(Timer) <= 64, "Timer grew past one cache line");

TEST(TimerDeferralTest, DeferredDeadlineKeepsRescheduleOrderAtATie) {
  // The timer is pushed from 10 us to 20 us at t = 1 us. At 20 us it must
  // run after an event scheduled for 20 us before the reschedule and before
  // one scheduled after it, as a cancel-and-reschedule would.
  Simulator sim;
  std::string log;
  const Time t20 = Time::FromMicroseconds(20);
  Timer timer(sim, [&] { log += 'T'; });
  timer.ScheduleAt(Time::FromMicroseconds(10));
  sim.ScheduleAt(Time::FromMicroseconds(1), [&] {
    sim.ScheduleAt(t20, [&] { log += 'B'; });
    timer.ScheduleAt(t20);
    sim.ScheduleAt(t20, [&] { log += 'A'; });
  });
  sim.Run();
  EXPECT_EQ(log, "BTA");
  EXPECT_EQ(sim.Now(), t20);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerDeferralTest, SameDeadlineRescheduleTakesANewStamp) {
  // Re-arming at the unchanged deadline moves the timer behind events
  // scheduled for that instant in between.
  Simulator sim;
  std::string log;
  const Time t = Time::FromMicroseconds(5);
  Timer timer(sim, [&] { log += 'T'; });
  timer.ScheduleAt(t);
  sim.ScheduleAt(t, [&] { log += 'a'; });
  timer.ScheduleAt(t);
  sim.ScheduleAt(t, [&] { log += 'b'; });
  sim.Run();
  EXPECT_EQ(log, "aTb");
}

TEST(TimerDeferralTest, RunAfterCancelEndsAtTheLastLiveEvent) {
  // A deferred timer's queued event sits at the old deadline; Cancel must
  // remove it, or Run() would advance the clock to it.
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.ScheduleAt(Time::FromMicroseconds(10));
  timer.ScheduleAt(Time::FromMicroseconds(50));
  sim.ScheduleAt(Time::FromMicroseconds(5), [&] { timer.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), Time::FromMicroseconds(5));
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(TimerDeferralTest, ShorteningFiresAtTheEarlierTime) {
  Simulator sim;
  std::vector<Time> fires;
  Timer timer(sim, [&] { fires.push_back(sim.Now()); });
  timer.ScheduleAt(Time::FromMicroseconds(50));
  timer.ScheduleAt(Time::FromMicroseconds(20));
  sim.Run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Time::FromMicroseconds(20));
  EXPECT_EQ(sim.Now(), Time::FromMicroseconds(20));

  // Shortened after a deferral, to between the queued event and the
  // deferred deadline.
  fires.clear();
  timer.ScheduleAt(Time::FromMicroseconds(30));
  timer.ScheduleAt(Time::FromMicroseconds(90));
  timer.ScheduleAt(Time::FromMicroseconds(60));
  sim.Run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], Time::FromMicroseconds(60));
  EXPECT_EQ(sim.Now(), Time::FromMicroseconds(60));
}

// --- Engine differential ----------------------------------------------------

// Reference engine: every pending event in one std::map keyed by
// (when, order), order stamps from one counter, and a timer restart as a
// cancel plus a fresh schedule. Obviously correct, and slow.
class ReferenceEngine {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  std::int64_t Now() const { return now_; }
  std::uint64_t Reserve() { return next_order_++; }
  Key At(std::int64_t when, std::uint64_t order, std::function<void()> fn) {
    const Key key{std::max(when, now_), order};
    queue_.emplace(key, std::move(fn));
    return key;
  }
  void Cancel(const Key& key) { queue_.erase(key); }
  void Run() {
    while (!queue_.empty()) {
      auto it = queue_.begin();
      now_ = it->first.first;
      std::function<void()> fn = std::move(it->second);
      queue_.erase(it);
      fn();
    }
  }

 private:
  std::map<Key, std::function<void()>> queue_;
  std::int64_t now_ = 0;
  std::uint64_t next_order_ = 1;
};

// The op mix drives a backend through this surface. Labels name what fired:
// one-shot tokens are >= 0, pinned event i is -1 - i, timer j is -1000 - j.
struct RealBackend {
  explicit RealBackend(std::function<void(int)> on_fire, int pinned, int timers)
      : fire(std::move(on_fire)) {
    pin_targets.reserve(static_cast<std::size_t>(pinned));  // stable args
    for (int i = 0; i < pinned; ++i) {
      pin_targets.push_back(PinTarget{this, -1 - i});
      pins.push_back(sim.CreatePinned(
          [](void* arg) {
            const PinTarget& t = *static_cast<PinTarget*>(arg);
            t.backend->fire(t.label);
          },
          &pin_targets.back()));
    }
    for (int j = 0; j < timers; ++j) {
      clocks.push_back(
          std::make_unique<Timer>(sim, [this, j] { fire(-1000 - j); }));
    }
  }
  ~RealBackend() {
    clocks.clear();
    for (const PinnedEventId p : pins) sim.DestroyPinned(p);
  }

  std::int64_t Now() const { return sim.Now().ns(); }
  std::uint64_t Reserve() { return sim.ReserveOrder(); }
  void Schedule(std::int64_t delay, int token) {
    Track(token, sim.Schedule(Time::Nanoseconds(delay),
                              [this, token] { fire(token); }));
  }
  void ScheduleOrdered(std::int64_t when, std::uint64_t order, int token) {
    Track(token, sim.ScheduleAtOrdered(Time::Nanoseconds(when), order,
                                       [this, token] { fire(token); }));
  }
  void Cancel(int token) { sim.Cancel(ids[static_cast<std::size_t>(token)]); }
  bool PinnedArmed(int i) const { return sim.PinnedArmed(pins[i]); }
  void ArmPinned(int i, std::int64_t when) {
    sim.SchedulePinnedAt(pins[i], Time::Nanoseconds(when));
  }
  void ArmPinnedOrdered(int i, std::int64_t when, std::uint64_t order) {
    sim.SchedulePinnedAtOrdered(pins[i], Time::Nanoseconds(when), order);
  }
  void CancelPinned(int i) { sim.CancelPinned(pins[i]); }
  bool TimerPending(int j) const { return clocks[j]->pending(); }
  std::int64_t TimerExpiry(int j) const { return clocks[j]->expiry().ns(); }
  void TimerAt(int j, std::int64_t when) {
    clocks[j]->ScheduleAt(Time::Nanoseconds(when));
  }
  void TimerCancel(int j) { clocks[j]->Cancel(); }
  void Run() { sim.Run(); }

  void Track(int token, EventId id) {
    if (ids.size() <= static_cast<std::size_t>(token)) {
      ids.resize(static_cast<std::size_t>(token) + 1);
    }
    ids[static_cast<std::size_t>(token)] = id;
  }

  struct PinTarget {
    RealBackend* backend;
    int label;
  };

  Simulator sim;
  std::function<void(int)> fire;
  std::vector<PinTarget> pin_targets;
  std::vector<PinnedEventId> pins;
  std::vector<std::unique_ptr<Timer>> clocks;
  std::vector<EventId> ids;
};

struct ReferenceBackend {
  using Key = ReferenceEngine::Key;
  struct RefTimer {
    std::optional<Key> key;
    std::int64_t expiry = 0;
  };

  explicit ReferenceBackend(std::function<void(int)> on_fire, int pinned,
                            int timers)
      : fire(std::move(on_fire)), pins(pinned), clocks(timers) {}

  std::int64_t Now() const { return ref.Now(); }
  std::uint64_t Reserve() { return ref.Reserve(); }
  void Schedule(std::int64_t delay, int token) {
    ScheduleOrdered(ref.Now() + std::max<std::int64_t>(delay, 0),
                    ref.Reserve(), token);
  }
  void ScheduleOrdered(std::int64_t when, std::uint64_t order, int token) {
    const Key key = ref.At(when, order, [this, token] { fire(token); });
    if (keys.size() <= static_cast<std::size_t>(token)) {
      keys.resize(static_cast<std::size_t>(token) + 1);
    }
    keys[static_cast<std::size_t>(token)] = key;
  }
  void Cancel(int token) { ref.Cancel(keys[static_cast<std::size_t>(token)]); }
  bool PinnedArmed(int i) const { return pins[i].has_value(); }
  void ArmPinned(int i, std::int64_t when) {
    ArmPinnedOrdered(i, when, ref.Reserve());
  }
  void ArmPinnedOrdered(int i, std::int64_t when, std::uint64_t order) {
    pins[i] = ref.At(when, order, [this, i] {
      pins[i].reset();
      fire(-1 - i);
    });
  }
  void CancelPinned(int i) {
    if (pins[i]) ref.Cancel(*pins[i]);
    pins[i].reset();
  }
  bool TimerPending(int j) const { return clocks[j].key.has_value(); }
  std::int64_t TimerExpiry(int j) const { return clocks[j].expiry; }
  void TimerAt(int j, std::int64_t when) {
    TimerCancel(j);
    clocks[j].expiry = when;
    clocks[j].key = ref.At(when, ref.Reserve(), [this, j] {
      clocks[j].key.reset();
      fire(-1000 - j);
    });
  }
  void TimerCancel(int j) {
    if (clocks[j].key) ref.Cancel(*clocks[j].key);
    clocks[j].key.reset();
  }
  void Run() { ref.Run(); }

  ReferenceEngine ref;
  std::function<void(int)> fire;
  std::vector<std::optional<Key>> pins;
  std::vector<RefTimer> clocks;
  std::vector<Key> keys;
};

// A seeded mix of schedules, reserved-stamp schedules, cancels, pinned
// re-arms and timer restarts (later, earlier, same deadline, cancel), all
// issued from inside dispatched callbacks so the two engines see the same
// ops only while their dispatch sequences agree. `fillers` far-future
// events are scheduled up front; enough of them engage the wheel. Every
// 1500th fire with `burst` > 0 also schedules `burst` one-shots into one
// 256 ns slice (the wheel's bucket width), at most 100 slices ahead and
// sometimes the slice being dispatched.
struct MixResult {
  std::vector<std::pair<std::int64_t, int>> log;  // (time, label) per fire
  std::int64_t end = 0;
  bool wheel_engaged = false;
};

template <typename Backend>
MixResult RunOpMix(std::uint64_t seed, int fillers, int burst = 0) {
  constexpr int kPinned = 8;
  constexpr int kTimers = 16;
  constexpr int kBudget = 30'000;  // fires that still issue ops
  MixResult result;
  std::uint64_t rng = seed;
  const auto next = [&rng](std::uint64_t n) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % n;
  };
  // Delays on a 32 ns grid so ties are common, spanning a bucket, the
  // wheel's 262 us window and the far horizon.
  const auto delay = [&next]() -> std::int64_t {
    switch (next(8)) {
      case 0:
        return 0;
      case 1:
      case 2:
        return static_cast<std::int64_t>(next(8)) * 32;
      case 3:
      case 4:
        return static_cast<std::int64_t>(next(640)) * 32;
      case 5:
      case 6:
        return static_cast<std::int64_t>(next(10'000)) * 32;
      default:
        return static_cast<std::int64_t>(next(160)) * 32'000;
    }
  };

  std::vector<bool> live;  // one-shot token -> pending
  std::vector<int> live_tokens;
  int live_count = 0;
  std::vector<std::uint64_t> reserved;
  int fired = 0;
  Backend* backend = nullptr;

  const auto new_token = [&] {
    ++live_count;
    live.push_back(true);
    live_tokens.push_back(static_cast<int>(live.size()) - 1);
    return static_cast<int>(live.size()) - 1;
  };
  const auto op = [&](Backend& b) {
    const std::int64_t now = b.Now();
    switch (next(12)) {
      case 0:
      case 1:
      case 2:
        b.Schedule(delay(), new_token());
        return;
      case 3:
        reserved.push_back(b.Reserve());
        return;
      case 4:
        if (!reserved.empty()) {
          const std::uint64_t order = reserved.back();
          reserved.pop_back();
          const int i = static_cast<int>(next(kPinned));
          if (next(2) == 0 && !b.PinnedArmed(i)) {
            b.ArmPinnedOrdered(i, now + delay(), order);
          } else {
            b.ScheduleOrdered(now + delay(), order, new_token());
          }
        }
        return;
      case 5: {
        // Cancel a random live one-shot (dead entries are pruned lazily).
        while (!live_tokens.empty()) {
          const std::size_t k = next(live_tokens.size());
          const int token = live_tokens[k];
          live_tokens[k] = live_tokens.back();
          live_tokens.pop_back();
          if (live[static_cast<std::size_t>(token)]) {
            live[static_cast<std::size_t>(token)] = false;
            --live_count;
            b.Cancel(token);
            return;
          }
        }
        return;
      }
      case 6: {
        const int i = static_cast<int>(next(kPinned));
        if (b.PinnedArmed(i)) b.CancelPinned(i);
        b.ArmPinned(i, now + delay());
        return;
      }
      default: {
        const int j = static_cast<int>(next(kTimers));
        const bool pending = b.TimerPending(j);
        const std::int64_t expiry = b.TimerExpiry(j);
        switch (next(6)) {
          case 0:  // later deadline
            b.TimerAt(j, (pending ? expiry : now) + 32 + delay());
            return;
          case 1:  // earlier deadline
            b.TimerAt(j, pending ? std::max(now, expiry - 32 - delay())
                                 : now + delay());
            return;
          case 2:  // same deadline
            b.TimerAt(j, pending ? expiry : now + delay());
            return;
          case 3:
            b.TimerCancel(j);
            return;
          default:  // the per-ACK restart: now + RTO
            b.TimerAt(j, now + 32'000 + static_cast<std::int64_t>(next(4)) *
                                            32'000);
            return;
        }
      }
    }
  };
  const auto on_fire = [&](int label) {
    Backend& b = *backend;
    result.log.emplace_back(b.Now(), label);
    if (label >= 0) {
      live[static_cast<std::size_t>(label)] = false;
      --live_count;
    }
    if (++fired > kBudget) return;
    if (burst > 0 && fired % 1500 == 0) {
      const std::int64_t slice =
          ((b.Now() >> 8) + static_cast<std::int64_t>(next(100))) << 8;
      for (int k = 0; k < burst; ++k) {
        const std::int64_t when =
            slice + static_cast<std::int64_t>(next(256));
        b.Schedule(std::max<std::int64_t>(0, when - b.Now()), new_token());
      }
    }
    const int ops = 1 + static_cast<int>(next(3));
    for (int k = 0; k < ops; ++k) op(b);
    // Keep a working population so the mix runs its whole budget.
    while (live_count < 32) b.Schedule(delay(), new_token());
  };

  Backend b(on_fire, kPinned, kTimers);
  backend = &b;
  for (int i = 0; i < 64; ++i) b.Schedule(delay(), new_token());
  for (int i = 0; i < kTimers; ++i) b.TimerAt(i, delay());
  for (int i = 0; i < fillers; ++i) {
    b.Schedule(50'000'000 + static_cast<std::int64_t>(i % 97) * 256,
               new_token());
  }
  b.Run();
  result.end = b.Now();
  if constexpr (std::is_same_v<Backend, RealBackend>) {
    result.wheel_engaged = b.sim.wheel_engaged();
  }
  return result;
}

// Most fires that share one 256 ns slice in a dispatch log.
std::size_t DensestSlice(const MixResult& result) {
  std::map<std::int64_t, std::size_t> per_slice;
  std::size_t densest = 0;
  for (const auto& [when, label] : result.log) {
    densest = std::max(densest, ++per_slice[when >> 8]);
  }
  return densest;
}

void ExpectEngineMatchesReference(int fillers, bool engaged, int burst = 0) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0x5eedull}) {
    SCOPED_TRACE(seed);
    const MixResult real = RunOpMix<RealBackend>(seed, fillers, burst);
    const MixResult reference =
        RunOpMix<ReferenceBackend>(seed, fillers, burst);
    if (burst > 0) {
      EXPECT_GT(DensestSlice(reference), 256u);
    }
    EXPECT_EQ(real.wheel_engaged, engaged);
    ASSERT_GT(reference.log.size(), 30'000u);
    EXPECT_EQ(real.end, reference.end);
    ASSERT_EQ(real.log.size(), reference.log.size());
    for (std::size_t i = 0; i < real.log.size(); ++i) {
      ASSERT_EQ(real.log[i], reference.log[i]) << "at dispatch " << i;
    }
  }
}

TEST(EngineDifferentialTest, SingleHeapMatchesReference) {
  ExpectEngineMatchesReference(/*fillers=*/0, /*engaged=*/false);
}

TEST(EngineDifferentialTest, WheelMatchesReference) {
  ExpectEngineMatchesReference(/*fillers=*/5000, /*engaged=*/true);
}

// Slices holding more than 256 entries: many blocks per bucket chain, a
// large sorted dispatch array, and pushes into it while it drains.
TEST(EngineDifferentialTest, DenseSlicesMatchReference) {
  ExpectEngineMatchesReference(/*fillers=*/5000, /*engaged=*/true,
                               /*burst=*/300);
}

TEST(EngineDifferentialTest, DenseSlicesWithoutWheelMatchReference) {
  ExpectEngineMatchesReference(/*fillers=*/0, /*engaged=*/false,
                               /*burst=*/300);
}

// Two Simulators in sequence on one thread: the second adopts the first's
// block slab and dispatch array, left behind with events still pending,
// and must neither see those entries nor grow the storage again.
TEST(EngineDifferentialTest, RecycledWheelStorageMatchesReference) {
  std::size_t first_bytes = 0;
  {
    Simulator sim;
    for (int i = 0; i < 6000; ++i) {
      sim.ScheduleAt(Time::Nanoseconds((i * 7919) % 200'000), [] {});
    }
    sim.RunUntil(Time::Microseconds(50));
    ASSERT_TRUE(sim.wheel_engaged());
    ASSERT_GT(sim.pending_events(), 1000u);
    first_bytes = sim.wheel_storage_bytes();
    ASSERT_GT(first_bytes, 0u);
  }
  std::size_t run_bytes = 0;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    const MixResult real = RunOpMix<RealBackend>(7, 5000, 300);
    const MixResult reference = RunOpMix<ReferenceBackend>(7, 5000, 300);
    ASSERT_EQ(real.log.size(), reference.log.size());
    for (std::size_t i = 0; i < real.log.size(); ++i) {
      ASSERT_EQ(real.log[i], reference.log[i]) << "at dispatch " << i;
    }
    Simulator probe;  // adopts what the op mix's Simulator left behind
    if (run == 0) {
      run_bytes = probe.wheel_storage_bytes();
      EXPECT_GE(run_bytes, first_bytes);
    } else {
      EXPECT_EQ(probe.wheel_storage_bytes(), run_bytes);
    }
  }
}

// --- Pooled calendar ----------------------------------------------------

// Schedules `count` events spread over the 256 ns slice that holds `when`,
// in shuffled time order, each logging (time, schedule index).
struct OrderLog {
  Simulator* sim = nullptr;
  std::vector<std::pair<std::int64_t, int>> expected;
  std::vector<std::pair<std::int64_t, int>> actual;
  std::function<void()> on_fire;  // runs inside every logged event

  void At(std::int64_t when_ns) {
    const int label = static_cast<int>(expected.size());
    const std::int64_t when = std::max(when_ns, sim->Now().ns());
    expected.emplace_back(when, label);
    sim->ScheduleAt(Time::Nanoseconds(when), [this, when, label] {
      actual.emplace_back(when, label);
      if (on_fire) on_fire();
    });
  }
  void Slice(std::int64_t when_ns, int count) {
    const std::int64_t base = (when_ns >> 8) << 8;
    for (int k = 0; k < count; ++k) At(base + (k * 97) % 256);
  }
  void EngageWheel() {
    // Far-future fillers fill the overflow heap past its engagement size.
    for (int i = 0; i < 4200; ++i) At(1'000'000'000 + i);
    ASSERT_TRUE(sim->wheel_engaged());
  }
  std::vector<std::pair<std::int64_t, int>> Sorted() const {
    auto sorted = expected;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    return sorted;
  }
};

TEST(PooledCalendarTest, OverflowEventAtNowStepsBackAheadOfVisitedBucket) {
  // The dispatcher visits the 20 us slice, but an overflow event at 10 us
  // wins and schedules into the 10 us slice, ahead of the visited one, and
  // into the visited slice itself. The visited remainder must go back to
  // its chain and return in (when, order) order after the earlier slice.
  Simulator sim;
  OrderLog log{&sim, {}, {}, {}};
  bool stepped = false;
  sim.ScheduleAt(Time::Microseconds(10), [&] {
    log.actual.emplace_back(-1, -1);
    log.Slice(20'000, 40);  // into the visited bucket's dispatch array
    log.Slice(10'000, 30);  // the slice holding Now()
    log.At(10'000);
    log.Slice(15'000, 20);
    stepped = true;
  });
  log.EngageWheel();
  log.Slice(20'000, 300);
  log.on_fire = [&] {
    // Pushes into the stepped-back slice's chain and the visited one.
    if (log.actual.size() % 50 == 0) {
      log.At(sim.Now().ns() + 100);
      log.At(20'100);
    }
  };
  sim.Run();
  ASSERT_TRUE(stepped);
  auto expected = log.Sorted();
  // The 10 us event itself runs first of all logged events.
  expected.insert(expected.begin(), {-1, -1});
  EXPECT_EQ(log.actual, expected);
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(PooledCalendarTest, RunUntilStopAheadOfVisitedBucketStepsBack) {
  // RunUntil peeks the 20 us slice (visiting it) but stops at 5 us because
  // an overflow event sits at 10 us; events then scheduled at Now() land
  // ahead of the visited bucket.
  Simulator sim;
  OrderLog log{&sim, {}, {}, {}};
  log.At(10'000);
  log.EngageWheel();
  log.Slice(20'000, 300);
  sim.RunUntil(Time::Microseconds(5));
  ASSERT_EQ(sim.Now(), Time::Microseconds(5));
  ASSERT_TRUE(log.actual.empty());
  log.Slice(5'000, 25);
  log.Slice(20'000, 25);
  log.Slice(6'000, 25);
  Time next;
  ASSERT_TRUE(sim.PeekNextTime(&next));
  EXPECT_EQ(next, Time::Microseconds(5));  // the slice's start, clamped
  sim.Run();
  EXPECT_EQ(log.actual, log.Sorted());
}

// A train of 300-entry bursts that sweeps every bucket of the wheel
// twice: burst(s) runs four slices ahead of slice s, so only a few bursts
// are pending at once. Returns the wheel's storage bytes at the end.
struct SweepResult {
  std::size_t bytes = 0;
  std::size_t peak_pending = 0;
  std::int64_t fired = 0;
};

SweepResult SweepWheelWithBursts() {
  SweepResult result;
  Simulator sim;
  for (int i = 0; i < 4200; ++i) {
    sim.ScheduleAt(Time::Seconds(1) + Time::Nanoseconds(i), [] {});
  }
  std::function<void(std::int64_t)> burst = [&](std::int64_t slice) {
    for (int k = 0; k < 300; ++k) {
      sim.ScheduleAt(Time::Nanoseconds((slice << 8) + (k * 37) % 256),
                     [&result] { ++result.fired; });
    }
    result.peak_pending =
        std::max(result.peak_pending, sim.pending_events() - 4200);
    if (slice < 2 * 1024) {
      sim.ScheduleAt(Time::Nanoseconds((slice - 3) << 8),
                     [&burst, slice] { burst(slice + 1); });
    }
  };
  sim.ScheduleAt(Time::Zero(), [&burst] { burst(4); });
  sim.RunUntil(Time::Milliseconds(1));
  EXPECT_TRUE(sim.wheel_engaged());
  result.bytes = sim.wheel_storage_bytes();
  return result;
}

TEST(PooledCalendarTest, WheelStorageFollowsPendingSetNotBucketPeaks) {
  // Storage must track the pending peak; keeping each bucket's own peak
  // would hold 1024 x 300 entries (7.4 MB). The sweep gets a thread of its
  // own, whose recycled-storage cache starts empty.
  SweepResult sweep;
  std::thread([&sweep] { sweep = SweepWheelWithBursts(); }).join();
  EXPECT_EQ(sweep.fired, 300 * 2045);
  EXPECT_GT(sweep.peak_pending, 1000u);
  EXPECT_LT(sweep.peak_pending, 2000u);
  // Blocks hold 15 entries and the slab at most doubles past its need;
  // the dispatch array holds the largest bucket. Four entry-sizes per
  // pending entry leaves room for both and is still ~50x below the
  // per-bucket peaks.
  EXPECT_LE(sweep.bytes, 4 * 24 * sweep.peak_pending)
      << "wheel bytes " << sweep.bytes;
}

}  // namespace
}  // namespace ecnsharp
