#include "scenario/multi_cell.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <deque>
#include <memory>
#include <sstream>
#include <string>

#include "net/pcrf.h"
#include "obs/telemetry_publisher.h"
#include "scenario/scenario_world.h"
#include "sim/parallel_runner.h"
#include "util/time.h"

namespace flare {

namespace {

void AppendNumber(std::string& out, long long value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

/// Wire format for PCRF mirror ops crossing the domain mailbox:
/// "pcrf <1|0> <flow> <type> <cell_tag>" (1 = register). Built in place
/// in the domain's pooled payload buffer (EventDomain::StartPost), so
/// steady-state mirror traffic allocates nothing.
void PostPcrfOp(EventDomain& domain, FlowId id, FlowType type,
                Pcrf::CellTag cell, bool registered) {
  std::string& payload = domain.StartPost(kCoordinatorDomain);
  payload.append(registered ? "pcrf 1 " : "pcrf 0 ");
  AppendNumber(payload, static_cast<long long>(id));
  payload.push_back(' ');
  AppendNumber(payload, static_cast<long long>(type));
  payload.push_back(' ');
  AppendNumber(payload, static_cast<long long>(cell));
}

void ApplyPcrfOp(Pcrf& pcrf, const std::string& payload) {
  std::istringstream in(payload);
  std::string tag;
  int registered = 0;
  FlowId flow = 0;
  int type = 0;
  Pcrf::CellTag cell = 0;
  in >> tag >> registered >> flow >> type >> cell;
  if (!in || tag != "pcrf") return;
  if (registered != 0) {
    pcrf.RegisterFlow(flow, static_cast<FlowType>(type), cell);
  } else {
    pcrf.DeregisterFlow(flow, cell);
  }
}

/// Everything one cell's domain owns. Shard observers exist even when the
/// merged sinks are disabled — a world's pointers must stay valid for its
/// lifetime and the shards are cheap when unused.
struct CellShard {
  CellShard(const WatchdogConfig& watchdog, QoeEngineWeights qoe_weights,
            std::size_t flight_window, bool timeline)
      : spans(flight_window, timeline), health(watchdog), qoe(qoe_weights) {}

  Pcrf pcrf;  // domain-local mirror, read synchronously by the controller
  MetricsRegistry metrics;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  std::unique_ptr<ScenarioWorld> world;
};

}  // namespace

MultiCellResult RunMultiCellScenario(const MultiCellConfig& config) {
  const int n_cells = std::max(config.n_cells, 1);

  ParallelRunner::Options options;
  options.workers = std::max(config.workers, 0);
  options.epoch = config.epoch > 0 ? config.epoch : config.cell.oneapi.bai;
  ParallelRunner runner(options);

  // Shared core registry, owned by the coordinator; only barrier handlers
  // touch it, so no locking is needed.
  Pcrf global_pcrf;
  runner.SetCoordinatorHandler([&global_pcrf](const DomainMessage& msg) {
    ApplyPcrfOp(global_pcrf, msg.payload);
  });

  // Per-cell worlds. deque: shard addresses must survive emplace_back
  // (worlds hold pointers into their shard's observers and PCRF).
  const bool deterministic = config.cell.oneapi.deterministic_timing;
  SpanTracer* const timeline = TimelineOf(config.span_trace);
  runner.SetObservers(config.metrics, timeline, deterministic);
  if (config.span_trace != nullptr) {
    config.span_trace->set_deterministic(deterministic);
    config.span_trace->set_default_pid(0);  // coordinator/runner process
  }

  const Rng master(config.cell.seed);
  // Live telemetry rides the barrier hook; shard observers are treated
  // as enabled whenever the server is attached so mid-run QoE/health/
  // event tailing works even without end-of-run export sinks.
  const bool telemetry_on = config.telemetry != nullptr;
  TelemetryPublisher publisher(config.telemetry,
                               config.telemetry_interval_ms);
  std::deque<CellShard> shards;
  for (int c = 0; c < n_cells; ++c) {
    EventDomain& domain = runner.AddDomain();
    CellShard& shard = shards.emplace_back(
        config.health != nullptr ? config.health->config() : WatchdogConfig{},
        config.qoe != nullptr ? config.qoe->weights() : QoeEngineWeights{},
        config.span_trace != nullptr ? config.span_trace->flight_window()
                                     : SpanTracer::kDefaultFlightWindow,
        timeline != nullptr);
    if (timeline != nullptr) domain.SetSpanTracer(&shard.spans);

    shard.pcrf.SetOnChange([&domain](FlowId id, FlowType type,
                                     Pcrf::CellTag cell, bool registered) {
      PostPcrfOp(domain, id, type, cell, registered);
    });

    ScenarioConfig cell_config = config.cell;
    cell_config.oneapi.cell_tag = static_cast<Pcrf::CellTag>(c);
    cell_config.metrics = config.metrics != nullptr || telemetry_on
                              ? &shard.metrics
                              : nullptr;
    cell_config.bai_trace =
        config.bai_trace != nullptr ? &shard.trace : nullptr;
    cell_config.span_trace =
        config.span_trace != nullptr || telemetry_on ? &shard.spans : nullptr;
    cell_config.health = config.health != nullptr || telemetry_on
                             ? &shard.health
                             : nullptr;
    cell_config.qoe =
        config.qoe != nullptr || telemetry_on ? &shard.qoe : nullptr;
    // Telemetry is published from the coordinator's barrier hook, never
    // from inside a cell's world.
    cell_config.telemetry = nullptr;

    shard.world = std::make_unique<ScenarioWorld>(
        cell_config, domain.sim(), shard.pcrf,
        master.SplitStream(static_cast<std::uint64_t>(c)));
    shard.world->Start();

    if (telemetry_on) {
      publisher.AddShard({&shard.metrics, &shard.qoe, &shard.health,
                          &shard.spans,
                          "cell" + std::to_string(c) + "."},
                         c);
    }
  }
  if (telemetry_on) {
    publisher.ConfigureRun(
        std::string(SchemeName(config.cell.scheme)) + " x" +
            std::to_string(n_cells),
        config.cell.duration_s, n_cells, options.workers);
    publisher.SetCoordinatorMetrics(config.metrics);
    runner.SetBarrierHook([&publisher](SimTime now) {
      publisher.MaybePublish(ToSeconds(now));
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  runner.RunUntil(FromSeconds(config.cell.duration_s));
  const auto wall_end = std::chrono::steady_clock::now();
  // Final snapshot so scrapers see the end-of-run state even when the
  // last interval had not elapsed.
  if (telemetry_on) publisher.PublishNow(config.cell.duration_s);

  MultiCellResult result;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       wall_end - wall_start)
                       .count();
  result.barrier_epochs = runner.epochs();
  result.mailbox_messages = runner.messages_delivered();
  result.global_video_flows = global_pcrf.CountFlowsAllCells(FlowType::kVideo);
  result.global_data_flows = global_pcrf.CountFlowsAllCells(FlowType::kData);

  // Harvest and merge in cell order — deterministic regardless of which
  // worker ran which domain.
  for (int c = 0; c < n_cells; ++c) {
    CellShard& shard = shards[static_cast<std::size_t>(c)];
    result.cells.push_back(shard.world->Collect());
    if (config.metrics != nullptr) {
      config.metrics->MergeFrom(shard.metrics,
                                "cell" + std::to_string(c) + ".");
    }
    if (config.bai_trace != nullptr) {
      config.bai_trace->AbsorbShard(shard.trace, c);
    }
    if (config.span_trace != nullptr) {
      config.span_trace->AbsorbShard(shard.spans);
    }
    if (config.health != nullptr) {
      config.health->AbsorbShard(shard.health, c);
    }
    if (config.qoe != nullptr) {
      config.qoe->AbsorbShard(shard.qoe, c);
    }
  }
  if (config.bai_trace != nullptr) config.bai_trace->SortMergedRows();
  if (config.span_trace != nullptr) config.span_trace->SortMergedEvents();
  if (config.health != nullptr) config.health->SortMergedWarnings();

  return result;
}

}  // namespace flare
