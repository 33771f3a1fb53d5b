#include "obs/telemetry_publisher.h"

#include <string>
#include <utility>

#include "util/csv.h"  // JsonNumber

namespace flare {

std::string RenderEventNdjson(const TraceEvent& event) {
  std::string line = "{\"t_s\": ";
  line += JsonNumber(event.ts_us / 1e6);
  line += ", \"cell\": ";
  line += std::to_string(event.cell());
  line += ", \"seq\": ";
  line += std::to_string(event.seq);
  line += ", \"kind\": ";
  line += JsonQuote(event.name);
  line += ", \"flow\": ";
  line += std::to_string(event.flow);
  line += ", \"client\": ";
  line += std::to_string(event.client);
  line += ", \"value\": ";
  line += JsonNumber(event.value);
  if (!event.args.empty()) {
    line += ", \"args\": ";
    line += event.args;
  }
  line += '}';
  return line;
}

TelemetryPublisher::TelemetryPublisher(TelemetryServer* server,
                                       double interval_ms)
    : server_(server),
      interval_(std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              interval_ms > 0.0 ? interval_ms : 1000.0))) {
  if (server_ != nullptr) {
    next_due_ = std::chrono::steady_clock::now();  // first barrier publishes
  }
}

void TelemetryPublisher::ConfigureRun(std::string scenario, double duration_s,
                                      int cells, int workers) {
  scenario_ = std::move(scenario);
  duration_s_ = duration_s;
  cells_ = cells;
  workers_ = workers;
}

void TelemetryPublisher::AddShard(TelemetryShardView shard, int cell) {
  Shard entry;
  entry.view = std::move(shard);
  entry.cell = cell;
  shards_.push_back(std::move(entry));
}

void TelemetryPublisher::PublishNow(double sim_time_s) {
  if (server_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();

  TelemetrySnapshot snap;
  snap.scenario = scenario_;
  snap.sim_time_s = sim_time_s;
  snap.duration_s = duration_s_;
  snap.cells = cells_;
  snap.workers = workers_;

  if (coordinator_metrics_ != nullptr) {
    snap.metrics.AbsorbFrom(*coordinator_metrics_);
  }
  std::vector<std::string> event_lines;
  std::vector<TraceEvent> events;
  for (Shard& shard : shards_) {
    const std::string cell_prefix =
        "cell" + std::to_string(shard.cell) + ".";
    if (shard.view.metrics != nullptr) {
      snap.metrics.AbsorbFrom(*shard.view.metrics,
                              shard.view.metrics_prefix);
    }
    if (shard.view.qoe != nullptr) {
      const QoeLiveSummary live = shard.view.qoe->LiveSummary();
      auto gauge = [&](const char* name, double value) {
        snap.metrics.gauges[cell_prefix + name] = value;
      };
      gauge("qoe.sessions", static_cast<double>(live.sessions));
      gauge("qoe.played_sessions", static_cast<double>(live.played));
      gauge("qoe.avg_bitrate_bps", live.avg_bitrate_bps);
      gauge("qoe.jain_avg_bitrate", live.jain_avg_bitrate);
      gauge("qoe.avg_qoe", live.avg_qoe);
      gauge("qoe.stall_ratio", live.stall_ratio);
      gauge("qoe.stalls", static_cast<double>(live.stalls));
      gauge("qoe.switches", static_cast<double>(live.switches));
      gauge("qoe.admitted", static_cast<double>(live.admitted));
      gauge("qoe.blocked", static_cast<double>(live.blocked));
      gauge("qoe.blocking_probability", live.blocking_probability);
    }
    if (shard.view.health != nullptr) {
      const bool healthy = shard.view.health->healthy();
      const auto warnings =
          static_cast<std::uint64_t>(shard.view.health->warnings().size());
      snap.warnings += warnings;
      if (!healthy) {
        snap.healthy = false;
        snap.unhealthy_cells.push_back(shard.cell);
      }
      snap.metrics.gauges[cell_prefix + "health.healthy"] =
          healthy ? 1.0 : 0.0;
    }
    if (shard.view.tracer != nullptr) {
      events.clear();
      shard.next_event_seq = shard.view.tracer->CollectEventsSince(
          shard.next_event_seq, &events);
      for (const TraceEvent& event : events) {
        event_lines.push_back(RenderEventNdjson(event));
      }
    }
  }

  // Runner progress + wall-clock rates. The epoch count comes from the
  // coordinator registry when the parallel runner is attached; otherwise
  // publishes double as the progress tick.
  ++publishes_;
  std::uint64_t epochs = publishes_;
  if (coordinator_metrics_ != nullptr) {
    const auto it = coordinator_metrics_->counters().find("runner.epochs");
    if (it != coordinator_metrics_->counters().end()) {
      epochs = it->second.value();
    }
  }
  snap.epochs = epochs;
  if (have_last_) {
    const double wall_s =
        std::chrono::duration<double>(now - last_publish_).count();
    if (wall_s > 0.0) {
      snap.epoch_rate_hz =
          static_cast<double>(epochs - last_epochs_) / wall_s;
      snap.sim_speedup = (sim_time_s - last_sim_time_s_) / wall_s;
    }
  }
  have_last_ = true;
  last_publish_ = now;
  last_epochs_ = epochs;
  last_sim_time_s_ = sim_time_s;

  auto gauge = [&](const char* name, double value) {
    snap.metrics.gauges[name] = value;
  };
  gauge("telemetry.sim_time_s", sim_time_s);
  gauge("telemetry.progress_pct",
        duration_s_ > 0.0 ? 100.0 * sim_time_s / duration_s_ : 0.0);
  gauge("telemetry.epoch_rate_hz", snap.epoch_rate_hz);
  gauge("telemetry.sim_speedup", snap.sim_speedup);
  gauge("telemetry.publishes", static_cast<double>(publishes_));
  gauge("telemetry.healthy", snap.healthy ? 1.0 : 0.0);

  server_->Publish(std::move(snap));
  server_->PublishEvents(std::move(event_lines));
  next_due_ = now + interval_;
}

}  // namespace flare
