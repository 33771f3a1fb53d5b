#include "net/oneapi_server.h"

#include <string>

#include "lte/tbs_table.h"
#include "net/messages.h"
#include "util/csv.h"
#include "util/logging.h"

namespace flare {

OneApiServer::OneApiServer(Simulator& sim, Cell& cell, Pcrf& pcrf,
                           Pcef& pcef, const OneApiConfig& config)
    : sim_(sim),
      cell_(cell),
      pcrf_(pcrf),
      pcef_(pcef),
      config_(config),
      core_(config.params, config.efficiency_smoothing, config.gbr_headroom) {}

void OneApiServer::ConnectVideoClient(FlarePlugin* plugin, const Mpd& mpd) {
  // The client info crosses the operator API as a wire message; the
  // server trusts only what survives decoding.
  const std::string wire =
      EncodeClientInfo(plugin->BuildClientInfo(mpd));
  const FlowId id = plugin->flow();
  const std::uint64_t generation = ++next_generation_;
  connect_generation_[id] = generation;
  sim_.After(config_.uplink_latency, [this, plugin, wire, id, generation] {
    // A disconnect (or a newer connect) landed while this registration was
    // in flight: it is stale, and replaying it would resurrect the flow in
    // the controller/PCRF with a possibly dangling plugin pointer.
    const auto gen = connect_generation_.find(id);
    if (gen == connect_generation_.end() || gen->second != generation) {
      return;
    }
    // This attempt owns the entry; it is no longer in flight either way.
    connect_generation_.erase(gen);
    const std::optional<ClientInfo> info = DecodeClientInfo(wire);
    if (!info) {
      FLOG_WARN << "OneApiServer: dropping malformed client info";
      if (admission_callback_) admission_callback_(id, false);
      return;
    }
    if (!AdmitClient(*info)) {
      if (admission_callback_) admission_callback_(info->flow, false);
      return;
    }
    pcrf_.RegisterFlow(info->flow, FlowType::kVideo, config_.cell_tag);
    plugins_[info->flow] = plugin;
    // Reset the trace window so the first BAI measures a clean interval.
    if (cell_.HasFlow(info->flow)) cell_.TakeWindow(info->flow);
    if (core_.admission() != nullptr && span_trace_ != nullptr) {
      span_trace_->Instant(kLaneControl, "churn", "admission_admit",
                           static_cast<double>(sim_.Now()), {}, info->flow);
    }
    if (admission_callback_) admission_callback_(info->flow, true);
  });
}

double OneApiServer::NominalBitsPerRb(FlowId id) const {
  return static_cast<double>(TbsBitsPerPrb(cell_.UeItbs(cell_.flow(id).ue)));
}

bool OneApiServer::AdmitClient(const ClientInfo& info) {
  // Channel-based estimate at connect time: the flow has no trace window
  // yet, so use the nominal per-RB capacity at its current MCS (RunBai's
  // idle-flow sample).
  const double bits_per_rb =
      cell_.HasFlow(info.flow) ? NominalBitsPerRb(info.flow) : 1.0;
  const AdmissionDecision decision = core_.Admit(
      info, bits_per_rb, pcrf_.CountFlows(FlowType::kData, config_.cell_tag),
      static_cast<double>(cell_.num_rbs()) * 1000.0);
  if (decision.admit) return true;
  admission_rejects_metric_.Add();
  if (span_trace_ != nullptr) {
    span_trace_->Instant(
        kLaneControl, "churn", "admission_reject",
        static_cast<double>(sim_.Now()),
        "{\"policy\":\"" +
            std::string(
                AdmissionPolicyName(core_.admission()->config().policy)) +
            "\"}",
        info.flow, -1, decision.value);
  }
  return false;
}

void OneApiServer::UpdateClientInfo(FlowId id, const ClientInfo& info) {
  const std::string wire = EncodeClientInfo(info);
  sim_.After(config_.uplink_latency, [this, id, wire] {
    const std::optional<ClientInfo> update = DecodeClientInfo(wire);
    if (!update) {
      FLOG_WARN << "OneApiServer: dropping malformed client-info update";
      return;
    }
    core_.Refresh(id, *update);
  });
}

void OneApiServer::DisconnectVideoClient(FlowId id) {
  connect_generation_.erase(id);  // cancel any in-flight ConnectVideoClient
  core_.Depart(id);
  pcrf_.DeregisterFlow(id, config_.cell_tag);
  plugins_.erase(id);
}

void OneApiServer::SetObservers(MetricsRegistry* registry,
                                BaiTraceSink* sink, SpanTracer* spans,
                                RunHealthMonitor* health) {
  trace_sink_ = sink;
  span_trace_ = spans;
  health_ = health;
  core_.controller().SetSpanTracer(spans);
  bais_metric_ = MakeCounterHandle(registry, "oneapi.bais");
  assignments_metric_ = MakeCounterHandle(registry, "oneapi.assignments");
  admission_rejects_metric_ =
      MakeCounterHandle(registry, "oneapi.admission_rejects");
  solve_ms_metric_ = MakeHistogramHandle(
      registry, "oneapi.solve_ms",
      {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0});
  video_fraction_metric_ =
      MakeGaugeHandle(registry, "oneapi.video_fraction");
}

void OneApiServer::SetAnalytics(QoeAnalytics* qoe) { qoe_ = qoe; }

void OneApiServer::Start() {
  if (started_) return;
  started_ = true;
  sim_.Every(config_.bai, config_.bai, [this] { RunBai(); });
}

void OneApiServer::RunBai() {
  SpanScope bai_span(span_trace_, kLaneControl, "oneapi", "bai");
  // --- Gather: this BAI's RB & Rate Trace window per flow. Flows gone
  // from the cell sit this BAI out; a flow idle all BAI (e.g. buffer
  // full) samples the channel's nominal per-RB capacity instead.
  const std::vector<FlowObservation>& observations = core_.Gather(
      [this](FlowId id, const BaiSession&) -> std::optional<double> {
        if (!cell_.HasFlow(id)) return std::nullopt;
        const RbRateWindow window = cell_.TakeWindow(id);
        if (window.rbs == 0) return NominalBitsPerRb(id);
        return static_cast<double>(window.tx_bytes) * 8.0 /
               static_cast<double>(window.rbs);
      });
  if (observations.empty()) return;

  const int n_data =
      pcrf_.CountFlows(FlowType::kData, config_.cell_tag);
  const double rb_rate = static_cast<double>(cell_.num_rbs()) * 1000.0;
  const BaiDecision decision = core_.Decide(observations, n_data, rb_rate);

  const double solve_ms =
      config_.deterministic_timing
          ? 0.0
          : static_cast<double>(decision.solve_time.count()) / 1e6;
  solve_times_ms_.push_back(solve_ms);
  video_fractions_.push_back(decision.video_fraction);
  bais_metric_.Add();
  solve_ms_metric_.Observe(solve_ms);
  video_fraction_metric_.Set(decision.video_fraction);
  if (health_ != nullptr) {
    health_->OnSolverResult(ToSeconds(sim_.Now()), decision.feasible);
  }
  if (bai_span.enabled()) {
    bai_span.set_args(
        "{\"flows\":" + std::to_string(decision.assignments.size()) +
        ",\"video_fraction\":" + FormatNumber(decision.video_fraction) +
        ",\"feasible\":" + (decision.feasible ? "true" : "false") + "}");
  }

  // --- Enforce: GBR via PCEF at the eNodeB, rung via the UE plugin. The
  // assignment travels as a wire message and the plugin side decodes it.
  for (const RateAssignment& a : decision.assignments) {
    const RateAssignmentMsg msg = core_.Assignment(a);
    pcef_.EnforceGbr(msg.flow, msg.gbr_bps);
    assignments_metric_.Add();
    if (span_trace_ != nullptr) {
      const double ts_us = static_cast<double>(sim_.Now());
      // Decision timeline: every enforced rung change is an instant with
      // its Algorithm 1 cause; the GBR push marks the PCEF enforcement.
      if (a.level != a.previous_level) {
        span_trace_->Instant(
            kLaneControl, "decision", "rung_change", ts_us,
            "{\"from\":" + std::to_string(a.previous_level) +
                ",\"to\":" + std::to_string(a.level) + ",\"cause\":\"" +
                DecisionCauseName(a.cause) + "\"}",
            a.id, -1, static_cast<double>(a.level));
      }
      span_trace_->Instant(kLaneControl, "oneapi", "gbr_push", ts_us, {},
                           a.id, -1, msg.gbr_bps);
    }
    if (qoe_ != nullptr && a.level != a.previous_level) {
      qoe_->OnRungChange(DecisionCauseName(a.cause));
    }
    const BaiSession* session =
        trace_sink_ != nullptr ? core_.Find(a.id) : nullptr;
    if (session != nullptr) {
      BaiTraceRow row;
      row.t_s = ToSeconds(sim_.Now());
      row.cell = static_cast<int>(config_.cell_tag);
      row.flow = a.id;
      row.observed_bits_per_rb = session->last_sample;
      row.smoothed_bits_per_rb = session->smoothed_bits_per_rb;
      row.recommended_level = a.recommended_level;
      row.hysteresis_up = a.consecutive_up;
      row.enforced_level = a.level;
      row.rate_bps = a.rate_bps;
      row.gbr_bps = msg.gbr_bps;
      row.video_fraction = decision.video_fraction;
      row.solve_time_ms = solve_ms;
      row.feasible = decision.feasible;
      row.cause = DecisionCauseName(a.cause);
      trace_sink_->RecordBai(row);
    }
    const std::string wire = EncodeRateAssignment(msg);
    // Resolve the plugin at delivery time, not capture time: the client
    // may disconnect (and its plugin die) while the push is in flight.
    sim_.After(config_.downlink_latency, [this, wire] {
      const std::optional<RateAssignmentMsg> decoded =
          DecodeRateAssignment(wire);
      if (!decoded) return;
      const auto client = plugins_.find(decoded->flow);
      if (client == plugins_.end()) return;
      client->second->SetAssignedLevel(decoded->level);
    });
  }
}

}  // namespace flare
