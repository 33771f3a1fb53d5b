// Periodic, non-perturbing bridge from the run's observers to the
// telemetry server.
//
// The publisher is invoked at epoch barriers (ParallelRunner barrier
// hook in multi-cell runs, a BAI-periodic simulator event in single-cell
// runs). At a barrier every shard is quiescent and the coordinator
// thread owns all of them, so reading shard observers needs no locks —
// the barrier join is the happens-before edge. Everything published is a
// *copy* (MetricsSnapshot, rendered NDJSON strings): nothing the server
// thread touches aliases live simulation state, and the publisher never
// writes into any registry or engine, so run bytes are identical with
// telemetry on or off.
//
// Cost when disabled: MaybePublish is a single null check (no clock
// read) — bench_optimizer's BM_TelemetryOverhead holds it to the same
// order as a disabled instant site. When enabled but not yet
// due, the cost is one steady_clock read.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/telemetry_server.h"
#include "obs/watchdog.h"

namespace flare {

/// Read-only view of one cell shard's observers (any may be null).
struct TelemetryShardView {
  const MetricsRegistry* metrics = nullptr;
  const QoeAnalytics* qoe = nullptr;
  const RunHealthMonitor* health = nullptr;
  /// The shard's event log; `/events` tails its flight window.
  const SpanTracer* tracer = nullptr;
  /// Prefix the shard registry's metric names get in the snapshot
  /// ("cell<N>." in multi-cell runs, "" single-cell — matching the
  /// end-of-run merge).
  std::string metrics_prefix;
};

class TelemetryPublisher {
 public:
  /// `server` may be null (telemetry disabled; every call is a no-op
  /// branch). `interval_ms` gates publishes on *wall* clock: barriers
  /// fire far faster than an operator can read, and wall gating keeps
  /// the cost independent of simulated-time scale.
  TelemetryPublisher(TelemetryServer* server, double interval_ms);

  void ConfigureRun(std::string scenario, double duration_s, int cells,
                    int workers);
  /// Coordinator-owned registry absorbed unprefixed (runner metrics in
  /// multi-cell runs). May be null.
  void SetCoordinatorMetrics(const MetricsRegistry* metrics) {
    coordinator_metrics_ = metrics;
  }
  /// Register one shard; `cell` stamps its qoe.* and health gauges.
  /// Call once per cell before the run starts.
  void AddShard(TelemetryShardView shard, int cell);

  bool enabled() const { return server_ != nullptr; }

  /// The barrier hook: publish if the wall interval elapsed. Inline so
  /// the disabled path is visibly one predicted branch.
  void MaybePublish(double sim_time_s) {
    if (server_ == nullptr) return;
    if (std::chrono::steady_clock::now() < next_due_) return;
    PublishNow(sim_time_s);
  }
  /// Unconditional publish (final state after the run completes).
  void PublishNow(double sim_time_s);

 private:
  struct Shard {
    TelemetryShardView view;
    int cell = 0;
    std::uint64_t next_event_seq = 0;
  };

  TelemetryServer* server_;
  std::chrono::steady_clock::duration interval_;
  std::chrono::steady_clock::time_point next_due_;

  std::string scenario_;
  double duration_s_ = 0.0;
  int cells_ = 0;
  int workers_ = 0;
  const MetricsRegistry* coordinator_metrics_ = nullptr;
  std::vector<Shard> shards_;

  // Rate bookkeeping between publishes.
  bool have_last_ = false;
  std::chrono::steady_clock::time_point last_publish_;
  std::uint64_t last_epochs_ = 0;
  double last_sim_time_s_ = 0.0;
  std::uint64_t publishes_ = 0;
};

/// Render one instant as an `/events` NDJSON object (no trailing
/// newline): t_s, cell, seq, kind, flow, client, value, args.
std::string RenderEventNdjson(const TraceEvent& event);

}  // namespace flare
