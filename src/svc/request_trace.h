// Per-request phase attribution for the networked OneAPI control plane.
//
// A RequestTracer turns the daemon's request lifecycle into three
// coordinated observability products, all keyed by the wire-level trace
// context (svc/frame.h):
//
//   1. Perfetto spans — every admitted request and BAI tick becomes a
//      phase timeline (recv, parse, admit, queue_wait, solve, encode,
//      outbox_drain) in a Chrome trace-event JSON file, mergeable with
//      the loadgen's client-side spans by tools/flare_trace.
//   2. Stage histograms — svc.oneapi.stage.<phase>_us histograms plus
//      derived p50/p95/p99 gauges refreshed each tick, so /metrics and
//      flare_top show where tail latency lives without a trace file.
//   3. Slow-request exemplars — a bounded worst-K table per window of
//      ticks, flushed as `slow_request` instants with the full phase
//      breakdown and the solver's DecisionCause into the tracer's flight
//      window, so a post-mortem (DumpFlight) names the offending stage
//      of the slowest concrete requests.
//
// Threading model matches the service: every method runs on the daemon's
// single IO thread; the only shared state is the metrics registry, which
// is written under the service's metrics mutex (passed in); its
// instruments are resolved once at construction. The disabled
// path is a null RequestTracer* at every call site — one predicted
// branch, no argument construction (bench_optimizer's
// BM_RequestTraceOverhead pins this down).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "lte/types.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "svc/frame.h"

namespace flare {

/// Request phases in timeline order. recv/parse/admit are observed as the
/// bytes arrive; queue_wait spans sample-landed -> solve-start; solve and
/// encode happen inside the BAI tick; outbox_drain ends when the encoded
/// assignment has left the user-space outbox.
inline constexpr int kNumRequestPhases = 7;
extern const char* const kRequestPhaseNames[kNumRequestPhases];

/// Absolute timestamps (µs on the tracer clock) and durations for one
/// traced request, filled in incrementally as the request moves through
/// the service. Lives in the session until the matching assignment is
/// queued, then in the tracer's per-connection drain queue.
struct RequestTiming {
  TraceContext ctx;
  FlowId flow = kInvalidFlow;
  double start_us = 0.0;  // ReadSome that completed the frame began
  double recv_us = 0.0;
  double parse_start_us = 0.0;
  double parse_us = 0.0;
  double queued_at_us = 0.0;  // sample stored, waiting for the tick
  double queue_wait_us = 0.0;
  double solve_start_us = 0.0;
  double solve_us = 0.0;
  double encode_start_us = 0.0;
  double encode_us = 0.0;
  double send_us = 0.0;  // assignment handed to the outbox
  double end_us = 0.0;   // outbox drained past the assignment
  const char* cause = "";
};

struct RequestTracerOptions {
  /// Hard cap on buffered trace events; past it spans are dropped and
  /// counted (svc.oneapi.trace.dropped_events) instead of growing memory.
  /// Slow-request exemplars still reach the flight window.
  std::size_t max_events = 1'000'000;
  /// Worst-K exemplars kept per window.
  int exemplar_k = 4;
  /// Ticks per exemplar window; at each window edge the table is flushed
  /// into the flight window and reset.
  int exemplar_window_ticks = 64;
};

class RequestTracer {
 public:
  /// `registry` + `registry_mu` are the service's metrics plane (writes
  /// are taken under the mutex). Neither is owned.
  RequestTracer(MetricsRegistry* registry, std::mutex* registry_mu,
                RequestTracerOptions options);

  /// Microseconds since construction on the steady clock — the server
  /// side of the wire timestamps (TraceContext::server_*_us).
  double now_us() const;

  /// A client_info request finished its admission decision.
  void OnAdmit(const TraceContext* ctx, FlowId flow, double start_us,
               double recv_us, double parse_start_us, double parse_us,
               double admit_start_us, double admit_us, bool admitted);

  /// A traced stats sample was stored; recv/parse stage histograms are
  /// observed now, the rest when the request finalizes.
  void OnSampleQueued(const RequestTiming& timing);

  /// The encoded assignment for `timing` was queued on connection `fd`;
  /// finalization happens when the connection's cumulative flushed bytes
  /// reach `drain_watermark` (OnConnFlushed).
  void OnAssignmentQueued(RequestTiming timing, int fd,
                          std::uint64_t drain_watermark);

  /// The assignment was dropped (bounded outbox): the request will never
  /// complete on the wire; counted, no span.
  void OnAssignmentDropped(FlowId flow);

  /// Tick bookkeeping: one tick span, stage-quantile gauge refresh, and
  /// the exemplar window clock.
  void EndTick(double tick_start_us, double solve_start_us, double solve_us,
               double tick_us, std::size_t sessions, std::size_t assignments);

  /// The connection's cumulative flushed-byte count advanced; finalize
  /// every queued request whose watermark it passed.
  void OnConnFlushed(int fd, std::uint64_t drained_bytes, double now_us);
  /// Connection going away: drain anything matured, discard the rest.
  void OnConnClosed(int fd, std::uint64_t drained_bytes, double now_us);

  /// Safe from any thread (tests poll it while the IO thread traces).
  std::uint64_t finalized_requests() const {
    return finalized_.load(std::memory_order_relaxed);
  }

  /// Flush any remaining exemplars, sort, and write the Perfetto JSON.
  bool ExportJson(const std::string& path);
  /// Flush any remaining exemplars and write the flight dump (reason
  /// "shutdown"): the worst requests of each window, newest windows last.
  bool DumpFlight(const std::string& path);

 private:
  struct PendingDrain {
    std::uint64_t watermark = 0;
    RequestTiming timing;
  };

  void FinalizeRequest(const RequestTiming& timing);
  /// Observe one stage histogram (index into kRequestPhaseNames) under
  /// the registry mutex.
  void RecordStage(int phase, double value_us);
  bool CanRecord() const { return tracer_.size() < options_.max_events; }
  void CountDroppedEvent();
  void FlushExemplars();

  MetricsRegistry* registry_;
  std::mutex* registry_mu_;
  Histogram* stage_metrics_[kNumRequestPhases];
  /// p50/p95/p99 per stage. Each is resolved on its stage's first sample,
  /// so a stage without data stays absent rather than reading 0.
  Gauge* quantile_metrics_[kNumRequestPhases][3] = {};
  CounterHandle requests_metric_;
  CounterHandle requests_dropped_metric_;
  CounterHandle dropped_events_metric_;
  RequestTracerOptions options_;
  SpanTracer tracer_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<int, std::deque<PendingDrain>> drains_;
  std::atomic<std::uint64_t> finalized_{0};
  int ticks_in_window_ = 0;
  /// Worst-K finalized requests this window, slowest first.
  std::vector<RequestTiming> exemplars_;
};

/// Static lane assignment for request spans: requests for one flow never
/// overlap (the protocol is ping-pong per session), so hashing the flow
/// onto a small lane set keeps the Perfetto view compact while mostly
/// avoiding cross-flow overlap.
int RequestLane(FlowId flow);

/// 16-hex-digit trace id rendering, the wire and args-JSON form.
std::string TraceIdHex(std::uint64_t trace_id);

}  // namespace flare
