// Discrete-event simulator.
//
// All model components (eNodeB TTI loop, HAS players, OneAPI server BAI
// timer) schedule callbacks here. Time never moves backwards; scheduling in
// the past is clamped to "now" so stale timers fire immediately rather than
// corrupting the clock.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/time.h"

namespace flare {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (clamped to >= Now()).
  /// An object whose events capture `this` passes itself as `owner` and
  /// calls CancelOwned(this) in its destructor.
  void At(SimTime at, EventFn fn, const void* owner = nullptr);

  /// Schedule `fn` after a relative delay (clamped to >= 0).
  void After(SimTime delay, EventFn fn, const void* owner = nullptr);

  /// Drop `owner`'s pending events; each still counts in
  /// events_processed() when it pops. Owners die before their simulator.
  void CancelOwned(const void* owner) { queue_.CancelOwned(owner); }
  /// Pending events that name an owner (cancelled ones excluded).
  std::size_t owned_events() const { return queue_.OwnedPending(); }

  /// Schedule `fn` every `period` starting at `start` (clamped to
  /// >= Now()), until the run ends. The callback receives no arguments;
  /// use a lambda capture for state. The queue keeps one copy of `fn` for
  /// all occurrences and releases it when the simulator is destroyed.
  void Every(SimTime start, SimTime period, EventFn fn);

  /// Run until the event queue drains or the clock passes `until`
  /// (events exactly at `until` still run).
  void RunUntil(SimTime until);

  /// Stop the current RunUntil after the in-flight event completes.
  void Stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t queue_depth() const { return queue_.Size(); }

  /// Attach a metrics registry (null detaches): exports the event rate
  /// ("sim.events") and pending-queue depth ("sim.queue_depth").
  void SetMetrics(MetricsRegistry* registry);

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
  CounterHandle events_metric_;
  GaugeHandle queue_depth_metric_;
};

}  // namespace flare
