// Run-health watchdogs for the FLARE control loop.
//
// A RunHealthMonitor is fed at each BAI barrier with the control loop's
// vital signs — solver feasibility, per-player stall time, GBR token
// credit left unspent, data-flow service — and raises a structured
// warning whenever a signal stays bad for a configured streak of
// consecutive BAIs. Warnings go three places: this monitor's list (the
// `run_health` section of the metrics JSON), a `health.warnings` counter
// in the attached MetricsRegistry, and one `watchdog` instant in the
// attached SpanTracer, which also latches the tracer's flight snapshot —
// so an unhealthy stretch is visible on the Perfetto timeline next to the
// decisions that caused it, and in the post-mortem dump.
//
// Threading follows the shard model: one monitor per cell shard, fed
// only by that cell's event domain, merged post-run in cell order with
// AbsorbShard() + SortMergedWarnings().
//
// A warning fires once when a streak *reaches* its threshold and re-arms
// only after the signal fully recovers, so a 1000-BAI outage is one
// warning, not 997.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "lte/types.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"

namespace flare {

/// Streak thresholds, in consecutive BAI scans. A signal must stay bad
/// for the full streak before a warning fires.
struct WatchdogConfig {
  /// Solver reported infeasible (cell over capacity even at floor rungs).
  int infeasible_streak = 3;
  /// A player accrued stall time in every scanned BAI.
  int stall_streak = 3;
  /// Aggregate unspent GBR credit exceeded `gbr_shortfall_fraction` of
  /// one BAI's worth of promised GBR bytes.
  int gbr_shortfall_streak = 5;
  double gbr_shortfall_fraction = 0.5;
  /// A backlogged data flow was served zero bytes (starved by the
  /// priority phase).
  int starved_flow_streak = 5;
  /// Admission control rejected at least one arrival in every scanned
  /// BAI (the cell is in a sustained blocking regime).
  int blocking_streak = 3;
};

struct HealthWarning {
  double t_s = 0.0;
  int cell = 0;
  /// One of "infeasible_streak", "stall_streak", "gbr_shortfall",
  /// "starved_flow", "admission_blocking".
  std::string kind;
  /// Subject flow (starved_flow) or kInvalidFlow for cell-wide warnings.
  FlowId flow = kInvalidFlow;
  /// Subject client (stall_streak) or -1.
  int client = -1;
  /// Streak length at firing time, or shortfall bytes for gbr_shortfall.
  double value = 0.0;
  std::string detail;
};

class RunHealthMonitor {
 public:
  explicit RunHealthMonitor(const WatchdogConfig& config = {});
  RunHealthMonitor(const RunHealthMonitor&) = delete;
  RunHealthMonitor& operator=(const RunHealthMonitor&) = delete;

  /// Attach sinks (either may be null): `registry` gets a
  /// `health.warnings` counter, `tracer` a `watchdog` instant per warning
  /// and a flight snapshot latched on the first.
  void SetObservers(MetricsRegistry* registry, SpanTracer* tracer);
  void set_cell(int cell) { cell_ = cell; }
  const WatchdogConfig& config() const { return config_; }

  // --- Feeds (one call per signal per BAI scan) ---------------------------
  void OnSolverResult(double t_s, bool feasible);
  void OnPlayerScan(double t_s, int client, double stall_s_delta);
  void OnGbrScan(double t_s, double shortfall_bytes, double bai_gbr_bytes);
  void OnFlowScan(double t_s, FlowId flow, bool backlogged,
                  std::uint64_t tx_bytes_delta);
  /// Per-BAI churn scan: arrivals and admission rejections since the
  /// previous scan. Scans with no arrivals are neutral (the streak
  /// neither grows nor resets — an idle cell is not evidence of health).
  void OnAdmissionScan(double t_s, std::uint64_t blocked_delta,
                       std::uint64_t arrivals_delta);

  bool healthy() const { return warnings_.empty(); }
  const std::vector<HealthWarning>& warnings() const { return warnings_; }

  /// Append another monitor's warnings, restamping their cell to `cell`.
  void AbsorbShard(const RunHealthMonitor& shard, int cell);
  /// Stable sort by (t_s, cell, kind) for worker-count-independent bytes.
  void SortMergedWarnings();

  /// {"healthy": bool, "warnings": [...]} — the metrics JSON `run_health`
  /// section.
  void WriteJson(std::ostream& out) const;

 private:
  void Emit(double t_s, const char* kind, FlowId flow, int client,
            double value, std::string detail);

  WatchdogConfig config_;
  int cell_ = 0;
  int infeasible_streak_ = 0;
  bool infeasible_armed_ = true;
  int gbr_streak_ = 0;
  bool gbr_armed_ = true;
  int blocking_streak_ = 0;
  bool blocking_armed_ = true;
  struct Streak {
    int length = 0;
    bool armed = true;
  };
  std::map<int, Streak> stall_streaks_;
  std::map<FlowId, Streak> starved_streaks_;
  std::vector<HealthWarning> warnings_;
  CounterHandle warnings_metric_;
  SpanTracer* tracer_ = nullptr;
};

}  // namespace flare
