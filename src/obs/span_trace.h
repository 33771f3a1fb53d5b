// The per-domain event log of the FLARE control loop.
//
// A SpanTracer records Chrome trace-event records — complete spans ("X"),
// instant events ("i") and counter tracks ("C"). Every structured fact of
// a run (a rung change, a GBR push, an admission verdict, a stall edge, a
// watchdog alarm, a slow request) is one Instant call at its site; the
// tracer's views read those records:
//
//   * the timeline — every record, written as trace-event JSON loadable
//     in Perfetto (https://ui.perfetto.dev) or chrome://tracing;
//   * the flight window — a ring of the last N instants, always kept. It
//     backs the post-mortem dump (latched by TriggerSnapshot on the first
//     watchdog alarm, also written on a fatal signal), the telemetry
//     `/events` tail (CollectEventsSince) and the daemon's slow-request
//     exemplars.
//
// A tracer built without the timeline is bounded: it keeps only the
// flight window, records no spans or counters, and no record site reads
// a clock for it (SpanScope and Cell::RunTti see it as absent).
//
// Timestamps are *simulated* microseconds (SimTime is already an integral
// microsecond count), so the trace timeline is the experiment timeline;
// durations are wall-clock microseconds, showing where real CPU time goes
// inside each simulated interval.
//
// Cost model follows MetricsRegistry: every record site takes a
// `SpanTracer*` that is null by default, so the disabled path is one
// predicted branch (bench_optimizer's BM_ObsOverhead and
// BM_InstantOverhead pin this down).
//
// Threading model follows the sharded runtime (DESIGN.md §5d): a tracer
// is NOT internally synchronized. Each event domain records into its own
// per-cell shard (only the one worker advancing that domain touches it
// within an epoch; handoff happens at the pool barrier), and the
// coordinator's tracer is only touched between epochs. Shards are merged
// post-run in cell order with AbsorbShard() + SortMergedEvents(), which
// keeps the merged timeline and flight dump byte-stable for any worker
// count.
//
// Determinism: with set_deterministic(true) (mirrors
// OneApiConfig::deterministic_timing) record sites skip the steady clock
// entirely and every duration is written as 0, so the emitted JSON is
// bit-identical across runs and worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "lte/types.h"

namespace flare {

// Lane (Chrome "tid") assignments within a process (= cell). Fixed small
// integers so every cell's trace lines up the same way in the UI.
inline constexpr int kLaneControl = 0;  // OneAPI BAI ticks, solver, decisions
inline constexpr int kLaneMac = 1;      // Cell TTI-loop windows
inline constexpr int kLanePlayer = 2;   // player stall/switch/segment instants
inline constexpr int kLaneRunner = 3;   // epochs, barriers, mailbox drains

/// One trace-event record. `cat` and `name` must be string literals (or
/// otherwise outlive the tracer): they are stored unowned so a record
/// site costs one push_back, no allocation. `args`, when non-empty, is a
/// pre-rendered JSON object (use JsonQuote for embedded strings).
struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = 0.0;  // "X" events only
  char ph = 'X';        // 'X' complete span, 'i' instant, 'C' counter
  int pid = 0;          // process = cell (+1); 0 = coordinator/runner
  int tid = kLaneControl;
  const char* cat = "";
  const char* name = "";
  double value = 0.0;  // 'C' sample; an instant's subject value
  /// Instants: monotone per tracer, so the flight views keep a domain's
  /// order across ring wraps and merges.
  std::uint64_t seq = 0;
  FlowId flow = kInvalidFlow;  // instants: subject flow, if any
  int client = -1;             // instants: subject client, if any
  std::string args;            // rendered JSON object, "" = none

  /// Cell of the recording domain (pid c+1); the runner's pid 0 reads -1.
  int cell() const { return pid - 1; }
};

/// Escape + quote `text` as a JSON string literal (including the quotes).
std::string JsonQuote(std::string_view text);

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultFlightWindow = 512;

  /// `flight_window` instants are kept for the flight views (0 = the
  /// default). `timeline` keeps every record for the Perfetto export;
  /// false builds a bounded tracer.
  explicit SpanTracer(std::size_t flight_window = kDefaultFlightWindow,
                      bool timeline = true);
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  bool timeline() const { return timeline_; }
  /// Stop (or resume) growing the timeline; the flight window keeps
  /// recording either way.
  void set_timeline(bool on) { timeline_ = on; }

  /// Clock used by SpanScope (and any site without direct simulator
  /// access) to stamp ts_us. ScenarioWorld binds this to its simulator's
  /// Now(); the binding is cleared when the world is destroyed.
  void SetClock(std::function<double()> now_us) { clock_ = std::move(now_us); }
  double now_us() const { return clock_ ? clock_() : 0.0; }

  /// Deterministic mode: record every wall-clock duration as 0 and never
  /// touch the steady clock, so trace bytes are reproducible.
  void set_deterministic(bool on) { deterministic_ = on; }
  bool deterministic() const { return deterministic_; }

  /// Process id stamped on subsequently recorded events. Convention:
  /// pid 0 = the parallel runner / coordinator, pid c+1 = cell c.
  void set_default_pid(int pid) { pid_ = pid; }
  int default_pid() const { return pid_; }

  /// Timeline-only records: no-ops on a bounded tracer.
  void CompleteSpan(int lane, const char* cat, const char* name,
                    double ts_us, double dur_us, std::string args = {});
  void Counter(int lane, const char* name, double ts_us, double value);
  /// One structured fact: enters the flight window, and the timeline
  /// when kept. `flow`, `client` and `value` are the fact's subject.
  void Instant(int lane, const char* cat, const char* name, double ts_us,
               std::string args = {}, FlowId flow = kInvalidFlow,
               int client = -1, double value = 0.0);

  /// The timeline (empty on a bounded tracer).
  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // --- Flight views ------------------------------------------------------
  std::size_t flight_window() const { return window_; }
  /// Instants ever recorded / evicted from the flight window.
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  /// The flight window oldest-first (after a merge: every absorbed one).
  std::vector<TraceEvent> RecentInstants() const;
  /// Append windowed instants with seq >= `from_seq` (oldest-first) to
  /// `out`. Returns the next unseen seq (pass it back as the next
  /// `from_seq`; start at 0). Read-only: the telemetry publisher tails
  /// shards with this at epoch barriers.
  std::uint64_t CollectEventsSince(std::uint64_t from_seq,
                                   std::vector<TraceEvent>* out) const;
  /// Latch the flight window into the post-mortem snapshot. Only the
  /// first alarm latches (later alarms would overwrite the interesting
  /// context); `reason` is copied.
  void TriggerSnapshot(const char* reason, double t_s);
  bool triggered() const { return triggered_; }
  const std::string& trigger_reason() const { return trigger_reason_; }
  double trigger_t_s() const { return trigger_t_s_; }
  const std::vector<TraceEvent>& snapshot() const { return snapshot_; }

  /// Append another tracer's timeline, flight window and snapshot (their
  /// pids were stamped at record time). The merged window keeps every
  /// absorbed instant; the earliest trigger by (t_s, cell) wins. Call in
  /// cell order, then SortMergedEvents().
  void AbsorbShard(const SpanTracer& shard);
  /// Stable sort of the timeline by (ts, pid, tid) and, once shards were
  /// absorbed, of the flight records by (ts, pid, seq), so the merged
  /// bytes are independent of worker count.
  void SortMergedEvents();

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
  /// with process/thread-name metadata records first.
  void WriteJson(std::ostream& out) const;
  /// WriteJson to `path`; returns false (and logs) on I/O failure.
  bool ExportJson(const std::string& path) const;
  /// The flight dump: {reason, trigger, capacity, recorded, dropped,
  /// snapshot, recent}, one event per line as {t_s, cell, seq, kind,
  /// flow?, client?, value, args?}.
  void WriteFlightJson(std::ostream& out, const std::string& reason = {}) const;
  /// WriteFlightJson to `path`; false when unwritable.
  bool DumpPostmortem(const std::string& path,
                      const std::string& reason) const;

 private:
  std::function<double()> clock_;
  bool timeline_;
  bool deterministic_ = false;
  int pid_ = 0;
  std::vector<TraceEvent> events_;

  std::size_t window_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // oldest entry once the ring is full
  bool merged_ = false;   // AbsorbShard was called: ring_ is unbounded
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  bool triggered_ = false;
  std::string trigger_reason_;
  double trigger_t_s_ = 0.0;
  int trigger_pid_ = 0;
  std::vector<TraceEvent> snapshot_;
};

/// The tracer when it keeps a timeline, else null: span and counter
/// sites bind through this, so a bounded tracer costs them nothing.
inline SpanTracer* TimelineOf(SpanTracer* tracer) {
  return tracer != nullptr && tracer->timeline() ? tracer : nullptr;
}

/// RAII span: stamps ts from the tracer clock at construction, measures
/// wall-clock duration (0 in deterministic mode), records on destruction
/// or Close(). A null or bounded tracer makes every member a no-op.
class SpanScope {
 public:
  SpanScope(SpanTracer* tracer, int lane, const char* cat, const char* name);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { Close(); }

  bool enabled() const { return tracer_ != nullptr; }
  /// Attach a rendered-JSON args object to the span being recorded.
  void set_args(std::string args) { args_ = std::move(args); }
  /// Record now instead of at scope exit.
  void Close();

 private:
  SpanTracer* tracer_;
  int lane_;
  const char* cat_;
  const char* name_;
  double begin_ts_us_ = 0.0;
  std::int64_t wall_begin_ns_ = 0;
  std::string args_;
};

/// Best-effort fatal-signal hook (SIGSEGV/SIGABRT/SIGFPE): dumps the
/// tracer's flight views to `path` from the handler. Not
/// async-signal-safe in the strict sense — acceptable for a post-mortem
/// of last resort, which is attempted exactly once. Pass nullptr to
/// uninstall.
void InstallFatalSignalPostmortem(const SpanTracer* tracer, std::string path);

}  // namespace flare
