#include "svc/oneapi_service.h"

#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/bai_core.h"
#include "net/messages.h"
#include "netio/event_loop.h"
#include "netio/tcp.h"
#include "obs/telemetry_server.h"
#include "svc/frame.h"
#include "svc/request_trace.h"
#include "util/logging.h"

namespace flare {
namespace {

/// One TCP connection; `flow` stays kInvalidFlow until a ClientInfo is
/// admitted, after which the connection is the session's delivery path.
struct SessionConn {
  explicit SessionConn(int fd) : conn(fd) {}
  TcpConnection conn;
  FlowId flow = kInvalidFlow;
  /// The epoll mask last registered for this fd (0 = none yet).
  std::uint32_t interest = 0;
  /// Cumulative bytes ever queued; `queued_bytes - pending_bytes()` is
  /// the cumulative flushed count the tracer uses as the outbox-drain
  /// watermark.
  std::uint64_t queued_bytes = 0;
  std::uint64_t drained_bytes() const {
    return queued_bytes - conn.pending_bytes();
  }
  /// Encode one frame straight into the outbox, unless that would leave
  /// more than `limit` bytes pending: then nothing is queued and the
  /// result is false.
  bool QueueFrame(
      FrameType type, std::string_view payload,
      const TraceContext* trace = nullptr,
      std::size_t limit = std::numeric_limits<std::size_t>::max()) {
    const std::size_t queued =
        conn.QueueWithin(limit, [&](std::string* out) {
          AppendFrame(type, payload, trace, out);
        });
    queued_bytes += queued;
    return queued > 0;
  }
};

/// Transport state of one admitted flow, kept under the same keys as the
/// BaiCore session table: the latest stats sample waiting for the next
/// BAI tick, the delivery connection and the pending trace echo.
struct Session {
  std::optional<double> pending_sample;
  /// Owned by `conns`; the session is erased when this connection closes.
  SessionConn* conn = nullptr;
  /// Trace context of the latest traced stats report, waiting to be
  /// echoed on (and attributed to) the next assignment. Lives in the
  /// session — not the tracer — because the wire echo works even when
  /// server-side tracing is off (a traced client against an untraced
  /// daemon still gets srx/stx back).
  std::optional<RequestTiming> pending_trace;
};

/// recv/parse timestamps for the frame currently being handled, threaded
/// from the read site into the frame handlers. All zero when tracing is
/// off.
struct FrameTiming {
  double read_start_us = 0.0;
  double recv_us = 0.0;
  double parse_start_us = 0.0;
};

const std::vector<double> kMicrosBounds = {10.0,    50.0,    100.0,
                                           500.0,   1000.0,  5000.0,
                                           10000.0, 50000.0, 100000.0};

OverloadInfo Overload(const char* reason, const char* policy = "",
                      double value = 0.0) {
  OverloadInfo info;
  info.reason = reason;
  info.policy = policy;
  info.value = value;
  return info;
}

}  // namespace

struct OneApiService::Impl {
  explicit Impl(OneApiServiceOptions opts)
      : options(std::move(opts)),
        admission(options.admission),
        core(options.params, options.efficiency_smoothing,
             options.gbr_headroom),
        epoch(std::chrono::steady_clock::now()) {
    admission.SetObservers(&registry);
    core.SetAdmission(&admission);
    if (!options.trace_json.empty()) {
      tracer =
          std::make_unique<RequestTracer>(&registry, &metrics_mu, options.trace);
    }
  }

  OneApiServiceOptions options;
  EpollLoop loop;
  TcpListener listener;
  std::thread thread;
  bool started = false;
  int timer_fd = -1;

  // --- Loop-thread-only state -------------------------------------------
  std::map<int, std::unique_ptr<SessionConn>> conns;
  std::map<FlowId, Session> sessions;  // same keys as core's table
  std::uint64_t arrivals = 0;  // ClientInfos asking for a new session
  std::uint64_t blocked = 0;   // ... of which were rejected
  AdmissionController admission;
  BaiCore core;
  /// Null when tracing is off: the request path then never reads a clock
  /// or records a span, and assignments to untraced clients are
  /// byte-identical to the pre-tracing protocol.
  std::unique_ptr<RequestTracer> tracer;
  /// Server clock origin for the srx/stx wire echo when the tracer is
  /// off (a traced client still deserves aligned timestamps back).
  std::chrono::steady_clock::time_point epoch;
  /// The tick encodes each assignment's payload here, reused across
  /// assignments and BAIs.
  std::string assignment_payload;

  double NowUs() const {
    if (tracer != nullptr) return tracer->now_us();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
                   .count()) /
           1e3;
  }

  /// Registry writes happen on the loop thread, snapshots from any
  /// thread; both sides take this (uncontended) mutex.
  mutable std::mutex metrics_mu;
  MetricsRegistry registry;
  /// Instruments resolved once at construction; writes still take
  /// metrics_mu like every other registry write.
  CounterHandle assignments_metric =
      MakeCounterHandle(&registry, "svc.oneapi.assignments");
  CounterHandle assignments_dropped_metric =
      MakeCounterHandle(&registry, "svc.oneapi.assignments_dropped");
  CounterHandle bais_metric = MakeCounterHandle(&registry, "svc.oneapi.bais");
  CounterHandle malformed_rejects_metric =
      MakeCounterHandle(&registry, "svc.oneapi.malformed_rejects");
  CounterHandle overload_rejects_metric =
      MakeCounterHandle(&registry, "svc.oneapi.overload_rejects");
  CounterHandle admission_rejects_metric =
      MakeCounterHandle(&registry, "svc.oneapi.admission_rejects");
  CounterHandle connections_metric =
      MakeCounterHandle(&registry, "svc.oneapi.connections");
  CounterHandle unknown_ext_metric =
      MakeCounterHandle(&registry, "svc.oneapi.frames_with_unknown_ext");
  CounterHandle superseded_metric =
      MakeCounterHandle(&registry, "svc.oneapi.trace.superseded");
  /// Session ledger: arrivals == admitted + overload_rejects +
  /// admission_rejects, and admitted == departed + the sessions gauge.
  CounterHandle arrivals_metric =
      MakeCounterHandle(&registry, "svc.oneapi.arrivals");
  CounterHandle admitted_metric =
      MakeCounterHandle(&registry, "svc.oneapi.admitted");
  CounterHandle departed_metric =
      MakeCounterHandle(&registry, "svc.oneapi.departed");
  HistogramHandle solve_us_metric =
      MakeHistogramHandle(&registry, "svc.oneapi.solve_us", kMicrosBounds);
  HistogramHandle tick_us_metric =
      MakeHistogramHandle(&registry, "svc.oneapi.tick_us", kMicrosBounds);
  /// From the end of the solve to the last assignment handed to send().
  HistogramHandle fanout_us_metric =
      MakeHistogramHandle(&registry, "svc.oneapi.fanout_us", kMicrosBounds);
  GaugeHandle video_fraction_metric =
      MakeGaugeHandle(&registry, "svc.oneapi.video_fraction");
  GaugeHandle sessions_metric =
      MakeGaugeHandle(&registry, "svc.oneapi.sessions");
  GaugeHandle blocking_rate_metric =
      MakeGaugeHandle(&registry, "svc.oneapi.blocking_rate");

  // --- Thread-safe progress counters ------------------------------------
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> infos_received{0};
  std::atomic<std::uint64_t> stats_received{0};
  std::atomic<std::uint64_t> bais{0};
  std::atomic<std::uint64_t> assignments_sent{0};
  std::atomic<std::uint64_t> assignments_dropped{0};
  std::atomic<std::uint64_t> admission_rejects{0};
  std::atomic<std::uint64_t> overload_rejects{0};
  std::atomic<std::uint64_t> session_count{0};

  void OnAccept();
  void OnConnIo(int fd, std::uint32_t events);
  void OnTimer();
  void ProcessInbox(SessionConn& sc, double read_start_us, double recv_us);
  void HandleClientInfo(SessionConn& sc, const Frame& frame,
                        const FrameTiming& timing);
  void HandleStats(SessionConn& sc, const Frame& frame,
                   const FrameTiming& timing);
  void SendOverloadAndClose(SessionConn& sc, const OverloadInfo& info);
  void NotifyFlushed(SessionConn& sc);
  void UpdateInterest(SessionConn& sc);
  void TeardownConn(int fd);
  void Tick();
  void PublishTelemetry();
  /// Book one arrival's verdict; `reject_metric` is the counter of a
  /// reject, null for an admission.
  void CountVerdict(CounterHandle* reject_metric);
  void ShutdownOnLoop();
};

void OneApiService::Impl::OnAccept() {
  for (;;) {
    const int fd = listener.Accept();
    if (fd < 0) return;
    if (options.send_buffer_bytes > 0) {
      // Tests shrink the kernel send buffer so a deliberately slow client
      // backs up into the bounded user-space outbox quickly.
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                   sizeof(options.send_buffer_bytes));
    }
    connections_accepted.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(metrics_mu);
      connections_metric.Add();
    }
    UpdateInterest(*conns.emplace(fd, std::make_unique<SessionConn>(fd))
                        .first->second);
  }
}

void OneApiService::Impl::OnConnIo(int fd, std::uint32_t events) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  SessionConn& sc = *it->second;

  if ((events & EpollLoop::kError) != 0) {
    TeardownConn(fd);
    return;
  }
  if ((events & EpollLoop::kReadable) != 0) {
    // One ReadSome may complete several frames; they share its duration
    // as their recv phase.
    const double read_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    const IoStatus status = sc.conn.ReadSome();
    const double recv_us =
        tracer != nullptr ? tracer->now_us() - read_start_us : 0.0;
    ProcessInbox(sc, read_start_us, recv_us);
    if (conns.find(fd) == conns.end()) return;  // closed while processing
    if (status == IoStatus::kEof || status == IoStatus::kError) {
      // Flush any goodbye frames we just queued, then drop the peer.
      sc.conn.Flush();
      TeardownConn(fd);
      return;
    }
  }
  if ((events & EpollLoop::kWritable) != 0) {
    if (sc.conn.Flush() == IoStatus::kError) {
      TeardownConn(fd);
      return;
    }
    NotifyFlushed(sc);
  }
  if (sc.conn.FlushedAndDone()) {
    TeardownConn(fd);
    return;
  }
  UpdateInterest(sc);
}

void OneApiService::Impl::ProcessInbox(SessionConn& sc, double read_start_us,
                                       double recv_us) {
  const int fd = sc.conn.fd();
  for (;;) {
    FrameTiming timing;
    timing.read_start_us = read_start_us;
    timing.recv_us = recv_us;
    if (tracer != nullptr) timing.parse_start_us = tracer->now_us();
    Frame frame;
    const FrameParseStatus status = ParseFrame(&sc.conn.inbox(), &frame);
    if (status == FrameParseStatus::kNeedMore) return;
    if (status == FrameParseStatus::kError) {
      SendOverloadAndClose(sc, Overload("malformed"));
      return;
    }
    if (frame.unknown_ext) {
      // Extension-bearing frame with unknown keys/trailing bytes: the
      // forward-compatibility path, tolerated but visible.
      std::lock_guard<std::mutex> lock(metrics_mu);
      unknown_ext_metric.Add();
    }
    switch (frame.type) {
      case FrameType::kClientInfo:
        HandleClientInfo(sc, frame, timing);
        break;
      case FrameType::kStatsReport:
        HandleStats(sc, frame, timing);
        break;
      case FrameType::kBye:
        TeardownConn(fd);
        return;
      default:
        // Server->client frame types are a protocol violation upstream.
        SendOverloadAndClose(sc, Overload("malformed"));
        return;
    }
    if (conns.find(fd) == conns.end()) return;
    if (sc.conn.close_after_flush()) return;  // reject queued: stop reading
  }
}

void OneApiService::Impl::HandleClientInfo(SessionConn& sc,
                                           const Frame& frame,
                                           const FrameTiming& timing) {
  const std::optional<ClientInfo> info = DecodeClientInfo(frame.payload);
  if (!info) {
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  infos_received.fetch_add(1, std::memory_order_relaxed);
  // Parse covers frame extraction + message decode; admit covers the
  // decision from here to the verdict.
  const double admit_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
  const double parse_us =
      tracer != nullptr ? admit_start_us - timing.parse_start_us : 0.0;
  const auto record_admit = [&](bool admitted) {
    if (tracer == nullptr) return;
    tracer->OnAdmit(frame.trace ? &*frame.trace : nullptr, info->flow,
                    timing.read_start_us, timing.recv_us,
                    timing.parse_start_us, parse_us, admit_start_us,
                    tracer->now_us() - admit_start_us, admitted);
  };

  if (sc.flow != kInvalidFlow) {
    // Mid-session refresh (new cost cap, clickstream state, ...): the
    // constraints update, the ladder does not.
    if (info->flow != sc.flow) {
      SendOverloadAndClose(sc, Overload("malformed"));
      return;
    }
    core.Refresh(sc.flow, *info);
    return;
  }

  // Hard caps ahead of the admission policy.
  const bool duplicate = sessions.count(info->flow) > 0;
  if (duplicate ||
      (options.max_sessions > 0 && sessions.size() >= options.max_sessions)) {
    overload_rejects.fetch_add(1, std::memory_order_relaxed);
    CountVerdict(&overload_rejects_metric);
    record_admit(false);
    SendOverloadAndClose(
        sc, duplicate ? Overload("duplicate_flow")
                      : Overload("session_limit", "",
                                 static_cast<double>(options.max_sessions)));
    return;
  }

  // Admission prices the candidate at the configured connect-time
  // efficiency: the daemon has no channel to read. The lock covers the
  // whole call because the admission controller bumps registry counters.
  AdmissionDecision decision;
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    decision = core.Admit(*info, options.default_bits_per_rb,
                          options.n_data_flows,
                          static_cast<double>(options.num_rbs) * 1000.0);
  }
  if (!decision.admit) {
    admission_rejects.fetch_add(1, std::memory_order_relaxed);
    CountVerdict(&admission_rejects_metric);
    record_admit(false);
    SendOverloadAndClose(
        sc, Overload("admission",
                     AdmissionPolicyName(options.admission.policy),
                     decision.value));
    return;
  }

  Session session;
  session.conn = &sc;
  sessions[info->flow] = std::move(session);
  sc.flow = info->flow;
  session_count.store(sessions.size(), std::memory_order_relaxed);
  CountVerdict(nullptr);
  record_admit(true);
  sc.QueueFrame(FrameType::kWelcome, EncodeWelcome(info->flow));
  sc.conn.Flush();
  NotifyFlushed(sc);
  UpdateInterest(sc);
}

void OneApiService::Impl::HandleStats(SessionConn& sc, const Frame& frame,
                                      const FrameTiming& timing) {
  const std::optional<FlowStatsReport> report =
      DecodeStatsReport(frame.payload);
  if (!report) {
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  if (sc.flow == kInvalidFlow || report->flow != sc.flow) {
    // Stats before admission, or for someone else's flow: drop the peer
    // rather than let it steer another session's capacity estimate.
    SendOverloadAndClose(sc, Overload("malformed"));
    return;
  }
  const auto it = sessions.find(sc.flow);
  if (it == sessions.end()) return;
  if (report->rbs > 0) {
    // e_u = 8 * b_u / n_u, the RB & Rate Trace efficiency sample. A
    // zero-RB report carries no signal (idle BAI): the tick then re-feeds
    // the standing smoothed estimate, this adapter's counterpart of the
    // simulator's nominal-capacity sample.
    it->second.pending_sample = static_cast<double>(report->tx_bytes) * 8.0 /
                                static_cast<double>(report->rbs);
  }
  if (frame.trace) {
    // Latest-wins, like the sample itself: a second traced report before
    // the tick supersedes the first (counted — its id will never echo).
    if (it->second.pending_trace) {
      std::lock_guard<std::mutex> lock(metrics_mu);
      superseded_metric.Add();
    }
    const double now_us = NowUs();
    RequestTiming pending;
    pending.ctx = *frame.trace;
    pending.ctx.server_recv_us = static_cast<std::int64_t>(now_us);
    pending.flow = sc.flow;
    pending.start_us = timing.read_start_us;
    pending.recv_us = timing.recv_us;
    pending.parse_start_us = timing.parse_start_us;
    pending.parse_us =
        tracer != nullptr ? now_us - timing.parse_start_us : 0.0;
    pending.queued_at_us = now_us;
    it->second.pending_trace = pending;
    if (tracer != nullptr) tracer->OnSampleQueued(pending);
  }
  stats_received.fetch_add(1, std::memory_order_relaxed);
}

void OneApiService::Impl::SendOverloadAndClose(SessionConn& sc,
                                               const OverloadInfo& info) {
  if (info.reason == "malformed") {
    std::lock_guard<std::mutex> lock(metrics_mu);
    malformed_rejects_metric.Add();
  }
  sc.QueueFrame(FrameType::kOverload, EncodeOverload(info));
  sc.conn.CloseAfterFlush();
  sc.conn.Flush();
  if (sc.conn.FlushedAndDone()) {
    TeardownConn(sc.conn.fd());
    return;
  }
  UpdateInterest(sc);
}

void OneApiService::Impl::NotifyFlushed(SessionConn& sc) {
  if (tracer == nullptr) return;
  tracer->OnConnFlushed(sc.conn.fd(), sc.drained_bytes(), tracer->now_us());
}

void OneApiService::Impl::UpdateInterest(SessionConn& sc) {
  std::uint32_t mask = EpollLoop::kReadable | EpollLoop::kError;
  if (sc.conn.pending_bytes() > 0) mask |= EpollLoop::kWritable;
  if (mask == sc.interest) return;
  sc.interest = mask;
  const int fd = sc.conn.fd();
  loop.Watch(fd, mask, [this, fd](std::uint32_t ev) { OnConnIo(fd, ev); });
}

void OneApiService::Impl::TeardownConn(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  if (tracer != nullptr) {
    tracer->OnConnClosed(fd, it->second->drained_bytes(), tracer->now_us());
  }
  const FlowId flow = it->second->flow;
  if (flow != kInvalidFlow) {
    const auto session = sessions.find(flow);
    if (session != sessions.end() &&
        session->second.conn == it->second.get()) {
      sessions.erase(session);
      core.Depart(flow);
      session_count.store(sessions.size(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(metrics_mu);
      departed_metric.Add();
      sessions_metric.Set(static_cast<double>(sessions.size()));
    }
  }
  loop.Unwatch(fd);
  conns.erase(it);  // TcpConnection destructor closes the fd
}

void OneApiService::Impl::CountVerdict(CounterHandle* reject_metric) {
  ++arrivals;
  if (reject_metric != nullptr) ++blocked;
  // One lock for the whole verdict, so every snapshot's ledger balances.
  std::lock_guard<std::mutex> lock(metrics_mu);
  arrivals_metric.Add();
  (reject_metric != nullptr ? *reject_metric : admitted_metric).Add();
  sessions_metric.Set(static_cast<double>(sessions.size()));
  blocking_rate_metric.Set(static_cast<double>(blocked) /
                           static_cast<double>(arrivals));
}

void OneApiService::Impl::OnTimer() {
  std::uint64_t expirations = 0;
  // Coalesce missed expirations into one tick — the BAI is a cadence, not
  // a work queue; catching up would just burn solves on stale samples.
  while (::read(timer_fd, &expirations, sizeof(expirations)) ==
         static_cast<ssize_t>(sizeof(expirations))) {
  }
  Tick();
}

void OneApiService::Impl::Tick() {
  const auto tick_start = std::chrono::steady_clock::now();
  const double tick_start_us = tracer != nullptr ? tracer->now_us() : 0.0;

  // --- Gather. A session with no stats report since the last tick
  // re-feeds its smoothed estimate, or default_bits_per_rb before its
  // first report. `sessions` has the core's keys, so a cursor walking it
  // in step finds each session's pending sample without a lookup.
  auto pending = sessions.begin();
  const std::vector<FlowObservation>& observations = core.Gather(
      [&]([[maybe_unused]] FlowId id,
          const BaiSession& core_session) -> std::optional<double> {
        assert(pending != sessions.end() && pending->first == id);
        Session& session = (pending++)->second;
        if (const auto sample = std::exchange(session.pending_sample, {})) {
          return sample;
        }
        return core_session.smoothed_bits_per_rb > 0.0
                   ? core_session.smoothed_bits_per_rb
                   : options.default_bits_per_rb;
      });

  double solve_start_us = 0.0;
  double solve_span_us = 0.0;
  std::size_t n_assignments = 0;
  double fanout_us = 0.0;
  if (!observations.empty()) {
    solve_start_us = tracer != nullptr ? tracer->now_us() : 0.0;
    const BaiDecision decision =
        core.Decide(observations, options.n_data_flows,
                    static_cast<double>(options.num_rbs) * 1000.0);
    solve_span_us =
        tracer != nullptr ? tracer->now_us() - solve_start_us : 0.0;
    n_assignments = decision.assignments.size();

    const auto fanout_start = std::chrono::steady_clock::now();

    // --- Fan out: one kAssignment frame per flow, encoded into the reused
    // payload buffer and from there straight into the connection's
    // bounded outbox. A full outbox drops this BAI's frame for that client
    // only (counted); the tick itself never waits on anyone's socket.
    // Assignments come in ascending FlowId, as `sessions` is ordered, so a
    // cursor finds each one's session without a lookup.
    auto cursor = sessions.begin();
    for (const RateAssignment& a : decision.assignments) {
      while (cursor != sessions.end() && cursor->first < a.id) ++cursor;
      if (cursor == sessions.end() || cursor->first != a.id) continue;
      // Step past first: a teardown below erases this session.
      Session& sess = (cursor++)->second;
      SessionConn& sc = *sess.conn;
      const double encode_start_us =
          tracer != nullptr && sess.pending_trace ? tracer->now_us() : 0.0;
      assignment_payload.clear();
      AppendRateAssignment(core.Assignment(a), &assignment_payload);
      // Echo the client's trace context (with our receive/transmit
      // stamps) on the assignment that answers it — whether or not
      // server-side tracing is on. Untraced clients get byte-identical
      // pre-extension frames.
      TraceContext echo;
      const TraceContext* echo_ptr = nullptr;
      if (sess.pending_trace) {
        echo = sess.pending_trace->ctx;
        echo.server_send_us = static_cast<std::int64_t>(NowUs());
        echo_ptr = &echo;
      }
      if (!sc.QueueFrame(FrameType::kAssignment, assignment_payload, echo_ptr,
                         options.connection_buffer_limit)) {
        assignments_dropped.fetch_add(1, std::memory_order_relaxed);
        if (tracer != nullptr && sess.pending_trace) {
          tracer->OnAssignmentDropped(a.id);
        }
        sess.pending_trace.reset();
        std::lock_guard<std::mutex> lock(metrics_mu);
        assignments_dropped_metric.Add();
        continue;
      }
      if (tracer != nullptr && sess.pending_trace) {
        RequestTiming timing = *sess.pending_trace;
        const double send_us = tracer->now_us();
        timing.queue_wait_us = solve_start_us - timing.queued_at_us;
        timing.solve_start_us = solve_start_us;
        timing.solve_us = solve_span_us;
        timing.encode_start_us = encode_start_us;
        timing.encode_us = send_us - encode_start_us;
        timing.send_us = send_us;
        timing.cause = DecisionCauseName(a.cause);
        tracer->OnAssignmentQueued(std::move(timing), sc.conn.fd(),
                                   sc.queued_bytes);
      }
      // One echo per traced request: the context is consumed by the
      // assignment that answered it.
      sess.pending_trace.reset();
      assignments_sent.fetch_add(1, std::memory_order_relaxed);
      if (sc.conn.Flush() == IoStatus::kError) {
        TeardownConn(sc.conn.fd());
        continue;
      }
      NotifyFlushed(sc);
      UpdateInterest(sc);
    }
    if (!options.deterministic_timing) {
      fanout_us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - fanout_start)
                      .count() /
                  1e3;
    }

    const double solve_us =
        options.deterministic_timing
            ? 0.0
            : static_cast<double>(decision.solve_time.count()) / 1e3;
    std::lock_guard<std::mutex> lock(metrics_mu);
    assignments_metric.Add(decision.assignments.size());
    solve_us_metric.Observe(solve_us);
    video_fraction_metric.Set(decision.video_fraction);
  }

  bais.fetch_add(1, std::memory_order_relaxed);
  const double tick_us =
      options.deterministic_timing
          ? 0.0
          : std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - tick_start)
                    .count() /
                1e3;
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    bais_metric.Add();
    tick_us_metric.Observe(tick_us);
    fanout_us_metric.Observe(fanout_us);
  }
  if (tracer != nullptr) {
    tracer->EndTick(tick_start_us, solve_start_us, solve_span_us,
                    tracer->now_us() - tick_start_us, sessions.size(),
                    n_assignments);
  }
  PublishTelemetry();
}

void OneApiService::Impl::PublishTelemetry() {
  if (options.telemetry == nullptr) return;
  TelemetrySnapshot snapshot;
  snapshot.scenario = options.scenario;
  snapshot.healthy = true;
  snapshot.cells = 1;
  snapshot.workers = 1;
  snapshot.epochs = bais.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(metrics_mu);
    snapshot.metrics.AbsorbFrom(registry);
  }
  options.telemetry->Publish(std::move(snapshot));
}

void OneApiService::Impl::ShutdownOnLoop() {
  for (auto& [fd, sc] : conns) {
    sc->QueueFrame(FrameType::kOverload, EncodeOverload(Overload("shutdown")));
    sc->conn.Flush();  // best effort
    if (tracer != nullptr) {
      tracer->OnConnClosed(fd, sc->drained_bytes(), tracer->now_us());
    }
    loop.Unwatch(fd);
  }
  conns.clear();
  // Not departures (the ledger counts those): the service is stopping.
  for (const auto& entry : sessions) core.Depart(entry.first);
  sessions.clear();
  if (timer_fd >= 0) {
    loop.Unwatch(timer_fd);
    ::close(timer_fd);
    timer_fd = -1;
  }
  loop.Unwatch(listener.fd());
  listener.Close();
}

OneApiService::OneApiService(OneApiServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

OneApiService::~OneApiService() { Stop(); }

bool OneApiService::Start() {
  if (impl_->started) return true;
  if (!impl_->loop.ok()) return false;
  if (!impl_->listener.Listen(impl_->options.bind_address,
                              impl_->options.port)) {
    return false;
  }
  // Initial watches are registered before the loop thread starts — the
  // one other moment Watch() is legal off the loop thread.
  impl_->loop.Watch(
      impl_->listener.fd(), EpollLoop::kReadable | EpollLoop::kError,
      [impl = impl_.get()](std::uint32_t) { impl->OnAccept(); });
  if (impl_->options.bai_ms > 0) {
    impl_->timer_fd =
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (impl_->timer_fd >= 0) {
      itimerspec spec{};
      spec.it_interval.tv_sec = impl_->options.bai_ms / 1000;
      spec.it_interval.tv_nsec =
          static_cast<long>(impl_->options.bai_ms % 1000) * 1000000L;
      spec.it_value = spec.it_interval;
      ::timerfd_settime(impl_->timer_fd, 0, &spec, nullptr);
      impl_->loop.Watch(impl_->timer_fd, EpollLoop::kReadable,
                        [impl = impl_.get()](std::uint32_t) {
                          impl->OnTimer();
                        });
    } else {
      FLOG_WARN << "OneApiService: timerfd_create failed; BAI timer off";
    }
  }
  impl_->thread = std::thread([impl = impl_.get()] {
    impl->loop.Run();
    impl->ShutdownOnLoop();
  });
  impl_->started = true;
  return true;
}

void OneApiService::Stop() {
  if (!impl_->started) return;
  impl_->loop.Stop();
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->started = false;
  // The loop thread is gone: the tracer is safe to touch from here.
  if (impl_->tracer != nullptr && !impl_->options.trace_json.empty()) {
    impl_->tracer->ExportJson(impl_->options.trace_json);
  }
}

bool OneApiService::running() const { return impl_->started; }

std::uint16_t OneApiService::port() const {
  return impl_->listener.bound_port();
}

void OneApiService::TriggerTick() {
  if (!impl_->started) return;
  // Run on the loop thread and wait: callers sequence deterministic BAIs
  // against their own socket IO. Must not race Stop() — a tick posted
  // after the loop exits would never complete.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> future = done->get_future();
  impl_->loop.Post([impl = impl_.get(), done] {
    impl->Tick();
    done->set_value();
  });
  future.wait();
}

MetricsSnapshot OneApiService::SnapshotMetrics() const {
  std::lock_guard<std::mutex> lock(impl_->metrics_mu);
  return impl_->registry.Snapshot();
}

std::uint64_t OneApiService::connections_accepted() const {
  return impl_->connections_accepted.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::infos_received() const {
  return impl_->infos_received.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::stats_received() const {
  return impl_->stats_received.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::bais() const {
  return impl_->bais.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::assignments_sent() const {
  return impl_->assignments_sent.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::assignments_dropped() const {
  return impl_->assignments_dropped.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::admission_rejects() const {
  return impl_->admission_rejects.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::overload_rejects() const {
  return impl_->overload_rejects.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::sessions() const {
  return impl_->session_count.load(std::memory_order_relaxed);
}
std::uint64_t OneApiService::traced_requests() const {
  return impl_->tracer != nullptr ? impl_->tracer->finalized_requests() : 0;
}

bool OneApiService::DumpFlight(const std::string& path) {
  return !impl_->started && impl_->tracer != nullptr &&
         impl_->tracer->DumpFlight(path);
}

}  // namespace flare
