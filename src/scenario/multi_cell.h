// Multi-cell scenario runner on the sharded parallel runtime.
//
// Replicates one ScenarioConfig across n_cells eNodeBs, giving each cell
// its own event domain (simulator + cell + transport + players + OneAPI
// controller) scheduled by sim/parallel_runner. The cells share one
// core-network PCRF: each domain reads a domain-local PCRF shard
// synchronously, and every shard mutation is mirrored into the shared
// registry through the runner's mailbox at BAI-aligned epoch barriers —
// the cross-cell state is exactly as fresh as the control loop needs.
//
// The result is bit-identical for any worker count (workers=0 serial
// reference vs. a thread pool): per-cell Rngs come from
// Rng::SplitStream(cell), domains never share mutable state mid-epoch,
// and per-cell metrics/trace shards are merged in deterministic cell
// order after the run (tests/determinism_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/scenario.h"
#include "util/time.h"

namespace flare {

struct MultiCellConfig {
  /// Template for every cell; `oneapi.cell_tag` is overwritten with the
  /// cell index, `metrics`/`bai_trace` are replaced by per-cell shards
  /// (merged into the fields below after the run), and the per-cell Rng
  /// is SplitStream(cell) of `cell.seed`.
  ScenarioConfig cell;
  int n_cells = 2;
  /// Worker threads for the parallel runner; 0 = serial reference.
  int workers = 0;
  /// Epoch barrier period; 0 aligns with the BAI (`cell.oneapi.bai`).
  SimTime epoch = 0;

  // --- Merged observability (both may be null; null = disabled).
  /// Per-cell registries are folded in as "cell<i>.<name>". Not owned.
  MetricsRegistry* metrics = nullptr;
  /// Per-cell traces are absorbed with rows stamped by cell and sorted
  /// deterministically. Not owned.
  BaiTraceSink* bai_trace = nullptr;
  /// Per-cell event logs (pid = cell+1, built with this one's flight
  /// window and timeline setting) plus the runner's own epoch / barrier
  /// spans (pid 0) are merged here in cell order; the earliest shard
  /// flight trigger wins. Not owned.
  SpanTracer* span_trace = nullptr;
  /// Per-cell health monitors, merged with warnings restamped by cell.
  /// Its WatchdogConfig seeds every shard monitor. Not owned.
  RunHealthMonitor* health = nullptr;
  /// Per-cell QoE engines (weights copied from this one), merged with
  /// sessions restamped by cell. Not owned.
  QoeAnalytics* qoe = nullptr;

  /// Live telemetry server (obs/telemetry_server.h). When set, the
  /// runner's barrier hook publishes read-only snapshots of every shard's
  /// observers (absorbed under "cell<N>." like the post-run merge) every
  /// `telemetry_interval_ms` of wall clock. Shard observers are fed even
  /// when the merged sinks above are null, so live QoE/health/event
  /// telemetry works without requesting end-of-run exports. Run bytes
  /// stay byte-identical with telemetry on or off. Not owned; must be
  /// Start()ed by the caller.
  TelemetryServer* telemetry = nullptr;
  double telemetry_interval_ms = 1000.0;
};

struct MultiCellResult {
  std::vector<ScenarioResult> cells;  // indexed by cell
  /// Flow counts in the *shared* PCRF after the last barrier — the view a
  /// core-network function has of the whole deployment.
  int global_video_flows = 0;
  int global_data_flows = 0;
  std::uint64_t barrier_epochs = 0;
  std::uint64_t mailbox_messages = 0;
  /// Wall-clock of the run loop (bench_fig9_scaling's scaling table).
  double wall_ms = 0.0;
};

MultiCellResult RunMultiCellScenario(const MultiCellConfig& config);

}  // namespace flare
