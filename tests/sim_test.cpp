// Tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace flare {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) q.RunNext();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.Push(1, [&] {
    ++fired;
    q.Push(2, [&] { ++fired; });
  });
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.Push(1, [] {});
  q.Push(2, [] {});
  q.Clear();
  EXPECT_TRUE(q.Empty());
}

// Slots are recycled through a free list, so after heavy churn a later
// event often sits in a lower slot than an earlier one. Order must still
// be (time, push order): checked against a reference set over ~10^5
// interleaved pushes and pops with many ties.
TEST(EventQueue, TiesStayFifoAcrossHeavySlotReuse) {
  EventQueue q;
  Rng rng(11);
  std::set<std::pair<SimTime, int>> pending;  // (at, push index)
  std::pair<SimTime, int> fired{-1, -1};
  int pushes = 0;
  int pops = 0;
  for (int op = 0; op < 100'000; ++op) {
    if (pending.empty() || rng.Uniform() < 0.55) {
      const SimTime at = static_cast<SimTime>(rng.UniformInt(0, 7));
      const int index = pushes++;
      pending.emplace(at, index);
      q.Push(at, [&fired, at, index] { fired = {at, index}; });
    } else {
      ASSERT_EQ(q.NextTime(), pending.begin()->first);
      q.RunNext();
      ASSERT_EQ(fired, *pending.begin()) << "pop " << pops;
      pending.erase(pending.begin());
      ++pops;
    }
    ASSERT_EQ(q.Size(), pending.size());
  }
  EXPECT_GT(pops, 40'000);
}

TEST(EventQueue, RunEventReleasesItsCaptureRightAway) {
  EventQueue q;
  auto payload = std::make_shared<int>(0);
  std::weak_ptr<int> watch = payload;
  q.Push(1, [payload] { ++*payload; });
  q.Push(2, [&watch] { EXPECT_TRUE(watch.expired()); });
  payload.reset();
  EXPECT_FALSE(watch.expired());  // queued: the queue holds it
  q.RunNext();
  EXPECT_TRUE(watch.expired());  // ran: released before the next event
  q.RunNext();
}

TEST(EventQueue, ClearAndDestructionReleaseCaptures) {
  auto cleared = std::make_shared<int>(0);
  auto destroyed = std::make_shared<int>(0);
  std::weak_ptr<int> watch_cleared = cleared;
  std::weak_ptr<int> watch_destroyed = destroyed;
  {
    EventQueue q;
    q.Push(1, [cleared] {});
    q.PushEvery(1, 5, [cleared] {});
    cleared.reset();
    q.Clear();
    EXPECT_TRUE(watch_cleared.expired());
    EXPECT_TRUE(q.Empty());

    q.Push(1, [destroyed] {});
    q.PushEvery(2, 5, [destroyed] {});
    destroyed.reset();
    q.RunNext();  // the one-shot goes, the recurring one stays
    q.RunNext();
    EXPECT_FALSE(watch_destroyed.expired());
  }
  EXPECT_TRUE(watch_destroyed.expired());
}

// Owned events under heavy slot reuse: random pushes under a few owners,
// pops, and whole-owner cancellations. The survivors must still fire in
// (time, push order), each cancelled key must still pop (as a no-op), and
// the queue's size never drops on a cancel.
TEST(EventQueue, CancelOwnedKeepsSurvivorOrderAcrossSlotReuse) {
  EventQueue q;
  Rng rng(12);
  int owners[4];
  struct Pending {
    int owner;
    bool cancelled;
  };
  std::map<std::pair<SimTime, int>, Pending> pending;  // (at, push index)
  std::pair<SimTime, int> fired{-1, -1};
  int pushes = 0;
  int cancels = 0;
  int noop_pops = 0;
  for (int op = 0; op < 100'000; ++op) {
    const double u = rng.Uniform();
    if (pending.empty() || u < 0.55) {
      const SimTime at = static_cast<SimTime>(rng.UniformInt(0, 7));
      const int owner = static_cast<int>(rng.UniformInt(0, 3));
      const int index = pushes++;
      pending.emplace(std::make_pair(at, index), Pending{owner, false});
      q.Push(at, [&fired, at, index] { fired = {at, index}; },
             &owners[owner]);
    } else if (u < 0.57) {
      const int owner = static_cast<int>(rng.UniformInt(0, 3));
      q.CancelOwned(&owners[owner]);
      for (auto& [key, event] : pending) {
        if (event.owner == owner) event.cancelled = true;
      }
      ++cancels;
    } else {
      const auto head = pending.begin();
      ASSERT_EQ(q.NextTime(), head->first.first);
      fired = {-1, -1};
      q.RunNext();
      if (head->second.cancelled) {
        ASSERT_EQ(fired, std::make_pair(SimTime{-1}, -1));
        ++noop_pops;
      } else {
        ASSERT_EQ(fired, head->first);
      }
      pending.erase(head);
    }
    ASSERT_EQ(q.Size(), pending.size());
  }
  EXPECT_GT(cancels, 1000);
  EXPECT_GT(noop_pops, 1000);
}

TEST(EventQueue, CancelOwnedReleasesOnlyThatOwnersCallables) {
  EventQueue q;
  int a = 0;
  int b = 0;
  auto payload = std::make_shared<int>(0);
  std::weak_ptr<int> watch = payload;
  std::vector<int> order;
  q.Push(1, [&order, payload] { order.push_back(1); }, &a);
  q.Push(2, [&order] { order.push_back(2); }, &b);
  q.Push(3, [&order] { order.push_back(3); });
  q.Push(4, [&order] { order.push_back(4); }, &a);
  payload.reset();
  EXPECT_EQ(q.OwnedPending(), 3u);
  q.CancelOwned(&a);
  EXPECT_TRUE(watch.expired());  // released at the cancel, not the pop
  EXPECT_EQ(q.OwnedPending(), 1u);
  EXPECT_EQ(q.Size(), 4u);  // the keys stay
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(q.OwnedPending(), 0u);
}

TEST(EventQueue, CancelUnknownOrDrainedOwnerDoesNothing) {
  EventQueue q;
  int owner = 0;
  int stranger = 0;
  int fired = 0;
  q.Push(1, [&fired] { ++fired; }, &owner);
  q.RunNext();  // drained
  q.Push(2, [&fired] { ++fired; }, &stranger);
  q.Push(3, [&fired] { ++fired; });
  q.CancelOwned(&owner);
  q.CancelOwned(nullptr);  // unowned events are not an owner's
  q.CancelOwned(&fired);   // never used as an owner
  EXPECT_EQ(q.Size(), 2u);
  while (!q.Empty()) q.RunNext();
  EXPECT_EQ(fired, 3);
}

// A cancelled event's key still names its slot, so the slot must stay out
// of the free list until that key pops; reusing it earlier would run the
// new event at the cancelled event's time as well.
TEST(EventQueue, CancelledSlotIsReusedOnlyAfterItsKeyPops) {
  EventQueue q;
  int owner = 0;
  std::vector<std::pair<SimTime, int>> fired;
  SimTime now = 0;
  q.Push(10, [&] { fired.emplace_back(now, 1); }, &owner);
  q.CancelOwned(&owner);
  q.Push(5, [&] { fired.emplace_back(now, 2); });
  q.Push(20, [&] { fired.emplace_back(now, 3); });
  while (!q.Empty()) {
    now = q.NextTime();
    q.RunNext();
  }
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, int>>{{5, 2}, {20, 3}}));

  // After the cancelled key popped, its slot is free again.
  q.Push(30, [&] { fired.emplace_back(now, 4); }, &owner);
  q.CancelOwned(&owner);
  q.Push(40, [&] { fired.emplace_back(now, 5); });
  while (!q.Empty()) {
    now = q.NextTime();
    q.RunNext();
  }
  EXPECT_EQ(fired.back(), std::make_pair(SimTime{40}, 5));
  EXPECT_EQ(fired.size(), 3u);
}

// A recurring event is re-pushed after its callback returns, so an event
// the callback schedules for the next occurrence's instant fires first.
TEST(EventQueue, RecurringEventRequeuesAfterItsCallback) {
  EventQueue q;
  std::vector<int> order;
  SimTime now = 0;
  q.PushEvery(10, 10, [&] {
    order.push_back(1);
    if (now == 10) q.Push(20, [&] { order.push_back(2); });
  });
  for (int i = 0; i < 3; ++i) {
    now = q.NextTime();
    q.RunNext();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.NextTime(), 30);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.At(100, [&] { seen.push_back(sim.Now()); });
  sim.At(250, [&] { seen.push_back(sim.Now()); });
  sim.RunUntil(1000);
  EXPECT_EQ(seen, (std::vector<SimTime>{100, 250}));
  EXPECT_EQ(sim.Now(), 1000);  // horizon reached even with queue drained
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.At(100, [&] { ++fired; });
  sim.At(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.At(100, [&] { fired = true; });
  sim.RunUntil(100);
  EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.At(100, [&] {
    sim.At(50, [&] { fired_at = sim.Now(); });  // "past" event
  });
  sim.RunUntil(200);
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.At(100, [&] {
    sim.After(25, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntil(200);
  EXPECT_EQ(fired_at, 125);
}

TEST(Simulator, EveryRepeats) {
  Simulator sim;
  int count = 0;
  sim.Every(10, 10, [&] { ++count; });
  sim.RunUntil(100);
  EXPECT_EQ(count, 10);  // t = 10, 20, ..., 100
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.Every(10, 10, [&] {
    if (++count == 3) sim.Stop();
  });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.At(i, [] {});
  sim.RunUntil(10);
  EXPECT_EQ(sim.events_processed(), 5u);
}

// A cancelled event still counts when its time comes, exactly like the
// no-op an expired liveness check used to leave behind, so sim.events
// does not move when owners cancel instead.
TEST(Simulator, CancelledEventsStillCountAsProcessed) {
  MetricsRegistry registry;
  Simulator sim;
  sim.SetMetrics(&registry);
  int owner = 0;
  int fired = 0;
  for (int i = 0; i < 3; ++i) sim.After(i + 1, [&fired] { ++fired; }, &owner);
  sim.At(2, [&fired] { ++fired; });
  sim.CancelOwned(&owner);
  EXPECT_EQ(sim.owned_events(), 0u);
  EXPECT_EQ(sim.queue_depth(), 4u);
  sim.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(registry.GetCounter("sim.events").value(), 4u);
}

// Regression: Every() used to store its repeating callable in a
// shared_ptr whose lambda captured that same shared_ptr — a reference
// cycle that leaked the callable (and everything it captured) after the
// simulator was destroyed.
TEST(Simulator, EveryCallableIsReleasedWithSimulator) {
  auto payload = std::make_shared<int>(0);
  std::weak_ptr<int> watch = payload;
  {
    Simulator sim;
    sim.Every(10, 10, [payload] { ++*payload; });
    payload.reset();
    sim.RunUntil(50);
    EXPECT_FALSE(watch.expired());  // still scheduled, still alive
  }
  // Destroying the simulator (draining its queue) must free the callable.
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, MetricsCountEventsAndQueueDepth) {
  MetricsRegistry registry;
  Simulator sim;
  sim.SetMetrics(&registry);
  for (int i = 0; i < 4; ++i) sim.At(i + 1, [] {});
  sim.RunUntil(10);
  EXPECT_EQ(registry.GetCounter("sim.events").value(), 4u);
  EXPECT_EQ(registry.GetGauge("sim.queue_depth").value(), 0.0);
}

}  // namespace
}  // namespace flare
