#include "obs/watchdog.h"

#include <algorithm>
#include <ostream>
#include <tuple>
#include <utility>

#include "util/csv.h"

namespace flare {
namespace {

/// Advance a streak by one good/bad scan; returns true exactly when the
/// warning should fire (streak reaches `threshold` while armed). The
/// streak re-arms only after a good scan, so a long outage fires once.
bool Step(int& streak, bool& armed, bool bad, int threshold) {
  if (!bad) {
    streak = 0;
    armed = true;
    return false;
  }
  ++streak;
  if (armed && streak >= threshold) {
    armed = false;
    return true;
  }
  return false;
}

}  // namespace

RunHealthMonitor::RunHealthMonitor(const WatchdogConfig& config)
    : config_(config) {}

void RunHealthMonitor::SetObservers(MetricsRegistry* registry,
                                    SpanTracer* tracer) {
  warnings_metric_ = MakeCounterHandle(registry, "health.warnings");
  tracer_ = tracer;
}

void RunHealthMonitor::Emit(double t_s, const char* kind, FlowId flow,
                            int client, double value, std::string detail) {
  HealthWarning w;
  w.t_s = t_s;
  w.cell = cell_;
  w.kind = kind;
  w.flow = flow;
  w.client = client;
  w.value = value;
  w.detail = std::move(detail);
  warnings_metric_.Add();
  if (tracer_ != nullptr) {
    // Record the warning itself, then latch the flight window: the
    // snapshot is the pre-alarm context.
    tracer_->Instant(kLaneControl, "health", "watchdog", t_s * 1e6,
                     "{\"kind\":" + JsonQuote(kind) +
                         ",\"detail\":" + JsonQuote(w.detail) + "}",
                     w.flow, w.client, w.value);
    tracer_->TriggerSnapshot(kind, t_s);
  }
  warnings_.push_back(std::move(w));
}

void RunHealthMonitor::OnSolverResult(double t_s, bool feasible) {
  if (Step(infeasible_streak_, infeasible_armed_, !feasible,
           config_.infeasible_streak)) {
    Emit(t_s, "infeasible_streak", kInvalidFlow, -1,
         static_cast<double>(infeasible_streak_),
         "solver infeasible for " + std::to_string(infeasible_streak_) +
             " consecutive BAIs (cell over capacity at floor rungs)");
  }
}

void RunHealthMonitor::OnPlayerScan(double t_s, int client,
                                    double stall_s_delta) {
  Streak& s = stall_streaks_[client];
  if (Step(s.length, s.armed, stall_s_delta > 0.0, config_.stall_streak)) {
    Emit(t_s, "stall_streak", kInvalidFlow, client,
         static_cast<double>(s.length),
         "client " + std::to_string(client) + " stalled in " +
             std::to_string(s.length) + " consecutive BAIs");
  }
}

void RunHealthMonitor::OnGbrScan(double t_s, double shortfall_bytes,
                                 double bai_gbr_bytes) {
  const bool bad =
      bai_gbr_bytes > 0.0 &&
      shortfall_bytes > config_.gbr_shortfall_fraction * bai_gbr_bytes;
  if (Step(gbr_streak_, gbr_armed_, bad, config_.gbr_shortfall_streak)) {
    Emit(t_s, "gbr_shortfall", kInvalidFlow, -1, shortfall_bytes,
         "unspent GBR credit exceeded " +
             FormatNumber(config_.gbr_shortfall_fraction * 100.0) +
             "% of one BAI's promised bytes for " +
             std::to_string(gbr_streak_) + " consecutive BAIs");
  }
}

void RunHealthMonitor::OnFlowScan(double t_s, FlowId flow, bool backlogged,
                                  std::uint64_t tx_bytes_delta) {
  Streak& s = starved_streaks_[flow];
  if (Step(s.length, s.armed, backlogged && tx_bytes_delta == 0,
           config_.starved_flow_streak)) {
    Emit(t_s, "starved_flow", flow, -1, static_cast<double>(s.length),
         "backlogged data flow " + std::to_string(flow) +
             " served zero bytes for " + std::to_string(s.length) +
             " consecutive BAIs");
  }
}

void RunHealthMonitor::OnAdmissionScan(double t_s, std::uint64_t blocked_delta,
                                       std::uint64_t arrivals_delta) {
  if (arrivals_delta == 0) return;  // no evidence either way
  if (Step(blocking_streak_, blocking_armed_, blocked_delta > 0,
           config_.blocking_streak)) {
    Emit(t_s, "admission_blocking", kInvalidFlow, -1,
         static_cast<double>(blocking_streak_),
         "admission control rejected arrivals in " +
             std::to_string(blocking_streak_) +
             " consecutive BAIs with arrivals (sustained blocking)");
  }
}

void RunHealthMonitor::AbsorbShard(const RunHealthMonitor& shard, int cell) {
  for (HealthWarning w : shard.warnings_) {
    w.cell = cell;
    warnings_.push_back(std::move(w));
  }
}

void RunHealthMonitor::SortMergedWarnings() {
  std::stable_sort(warnings_.begin(), warnings_.end(),
                   [](const HealthWarning& a, const HealthWarning& b) {
                     return std::tie(a.t_s, a.cell, a.kind) <
                            std::tie(b.t_s, b.cell, b.kind);
                   });
}

void RunHealthMonitor::WriteJson(std::ostream& out) const {
  out << "{\"healthy\": " << (healthy() ? "true" : "false")
      << ", \"warnings\": [";
  for (std::size_t i = 0; i < warnings_.size(); ++i) {
    const HealthWarning& w = warnings_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"t_s\": " << FormatNumber(w.t_s)
        << ", \"cell\": " << w.cell << ", \"kind\": " << JsonQuote(w.kind);
    if (w.flow != kInvalidFlow) out << ", \"flow\": " << w.flow;
    if (w.client >= 0) out << ", \"client\": " << w.client;
    out << ", \"value\": " << FormatNumber(w.value)
        << ", \"detail\": " << JsonQuote(w.detail) << '}';
  }
  out << "]}";
}

}  // namespace flare
