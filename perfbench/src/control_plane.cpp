// control_plane: the socket OneAPI service (svc + netio) under a fixed
// session population, driven open-loop.
//
// One tick thread calls OneApiService::TriggerTick on a fixed 100 ms
// schedule; one client thread, owned by the benchmark, holds every
// session's loopback TCP connection and answers each assignment with a
// stats report. The population steps through 250, 500, 1000 and 2000
// sessions, each step on a fresh service whose RB budget scales with the
// population. Every session ends in exactly one of admitted, blocked or
// failed.
//
// The service runs with efficiency_smoothing = 1 and each session reports
// the same (tx_bytes, rbs) every BAI, so once a session's first report
// has landed the server's bits-per-RB estimate equals the value the
// client derives from its own report. That makes the capacity check
// exact: every BAI must satisfy sum(rate_u / e_u) <= r_max * RB budget.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "has/mpd.h"
#include "net/messages.h"
#include "report.h"
#include "svc/frame.h"
#include "svc/oneapi_service.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kBaiS = 0.1;
constexpr std::array<int, 4> kSteps = {250, 500, 1000, 2000};
constexpr int kReferenceSessions = 1000;
/// RB budget per session: puts the median session mid-ladder.
constexpr double kRbPerSession = 7.0;
/// Open-loop session arrival rate during a step's ramp.
constexpr double kArrivalsPerS = 1000.0;
/// Ticks before measuring: every session's first report lands, so the
/// server's efficiency estimates are exact from the first measured BAI.
constexpr int kWarmupTicks = 10;
/// The per-BAI decision budget: 10% of the BAI.
constexpr double kTickBudgetMs = 10.0;
/// e_u = 8 * tx_bytes / kReportRbs; tx_bytes is drawn so e_u is in
/// [80, 220] bits per RB.
constexpr std::uint64_t kReportRbs = 1000;
constexpr std::int64_t kMinReportBytes = 10000;
constexpr std::int64_t kMaxReportBytes = 27500;
constexpr double kVerdictTimeoutS = 15.0;
constexpr double kSyncTimeoutS = 5.0;
constexpr double kDrainTimeoutS = 2.0;
/// Extra service constructions before each step, for the setup_s median:
/// one takes tens of microseconds, so many are needed for a steady median.
constexpr int kSetupRepsPerStep = 250;
/// Measured ticks of the traced pass (each adds 8 spans per session).
constexpr int kTracedTicks = 20;

double ServerBitsPerRb(std::uint64_t tx_bytes) {
  // The service's own expression for a report's efficiency sample.
  return static_cast<double>(tx_bytes) * 8.0 /
         static_cast<double>(kReportRbs);
}

/// Pins the calling thread to one CPU (no-op when cpu < 0). Threads it
/// starts afterwards inherit the pin.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// CPUs for the service IO thread, the client thread and the tick thread,
/// or {-1, -1, -1} when fewer than three are allowed. Fixed placement
/// keeps tick times from flipping between "same core" and "cross core"
/// modes from one run to the next.
std::array<int, 3> ThreadCpus(const cpu_set_t& allowed) {
  std::array<int, 3> cpus = {-1, -1, -1};
  int found = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && found < 3; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus[static_cast<std::size_t>(found++)] = cpu;
  }
  return found == 3 ? cpus : std::array<int, 3>{-1, -1, -1};
}

void SleepUntil(double t_s) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t_s))));
}

bool WaitFor(double timeout_s, const auto& done) {
  const double deadline = NowS() + timeout_s;
  while (!done()) {
    if (NowS() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

enum class SessionState {
  kPending,
  kConnecting,
  kAwaitingVerdict,
  kAdmitted,
  kBlocked,
  kFailed,
};

struct Session {
  flare::FlowId flow = flare::kInvalidFlow;
  std::uint64_t report_bytes = 0;
  double bits_per_rb = 0.0;  // the server's estimate after a report
  double due_s = 0.0;        // open-loop connect time
  SessionState state = SessionState::kPending;
  int fd = -1;
  std::string inbox;
  std::string outbox;
  int assignments = 0;
  /// Whether the session held exactly kWarmupTicks assignments when the
  /// measured ticks began, so its n-th assignment is measured tick
  /// n - kWarmupTicks - 1.
  bool synced = false;
  bool sync_known = false;
  int last_level = -1;
  int measured = 0;
  int switches = 0;
  double rate_sum_bps = 0.0;
};

/// Everything one step measured. Client-side vectors are read only after
/// the client thread has joined.
struct StepStats {
  int sessions = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t failed = 0;
  /// Sessions still pending, connecting or awaiting a verdict when the
  /// step ended; every session must have an outcome, so this must be 0.
  std::uint64_t unfinished = 0;
  std::uint64_t missing = 0;  // session-BAIs of admitted sessions without an assignment
  std::uint64_t expected = 0;  // session-BAIs the step should have served
  int measured_ticks = 0;
  double setup_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> delay_ms;
  std::vector<double> admit_ms;
  std::vector<double> lag_ms;
  std::vector<double> mean_rate_kbps;  // per admitted session
  std::uint64_t switches = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t capacity_failures = 0;  // session-BAIs of over-budget ticks
  std::uint64_t assignments_sent = 0;
  std::uint64_t assignments_dropped = 0;
  std::uint64_t overload_rejects = 0;
  std::vector<std::string> errors;

  std::uint64_t misses() const {
    return missing + (failed + unfinished + blocked) * measured_ticks +
           capacity_failures;
  }
};

/// The benchmark's single-threaded session client: one epoll loop over
/// every session's socket.
class SessionClient {
 public:
  SessionClient(std::vector<Session> sessions, std::uint16_t port,
                std::vector<double> ladder_bps, double rb_budget,
                int measured_ticks, bool traced, int cpu)
      : sessions_(std::move(sessions)),
        port_(port),
        cpu_(cpu),
        ladder_bps_(std::move(ladder_bps)),
        rb_budget_(rb_budget),
        traced_(traced),
        capacity_sum_(static_cast<std::size_t>(measured_ticks), 0.0),
        capacity_count_(static_cast<std::size_t>(measured_ticks), 0) {}
  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;
  ~SessionClient() { Stop(); }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Begin attributing assignments to measured ticks due at t0 + k*BAI.
  void BeginMeasuring(double t0) {
    t0_.store(t0);
    measuring_.store(true);
  }

  int verdicts() const { return verdicts_.load(); }
  int admitted() const { return admitted_.load(); }
  int warmed() const { return warmed_.load(); }
  std::uint64_t measured_total() const { return measured_total_.load(); }

  /// Fold the client's records into `stats`. Call after Stop().
  void Collect(StepStats& stats) const {
    const int ticks = static_cast<int>(capacity_sum_.size());
    for (const Session& s : sessions_) {
      switch (s.state) {
        case SessionState::kAdmitted:
          ++stats.admitted;
          stats.missing += static_cast<std::uint64_t>(
              ticks - (s.synced ? s.measured : 0));
          if (s.measured > 0) {
            stats.mean_rate_kbps.push_back(s.rate_sum_bps / s.measured / 1e3);
          }
          stats.switches += static_cast<std::uint64_t>(s.switches);
          break;
        case SessionState::kBlocked:
          ++stats.blocked;
          break;
        case SessionState::kFailed:
          ++stats.failed;
          break;
        case SessionState::kPending:
        case SessionState::kConnecting:
        case SessionState::kAwaitingVerdict:
          ++stats.unfinished;
          break;
      }
    }
    stats.expected =
        static_cast<std::uint64_t>(sessions_.size()) * static_cast<std::uint64_t>(ticks);
    for (int k = 0; k < ticks; ++k) {
      // Capacity constraint (3): sum(rate_u / e_u) <= r_max * RB budget.
      if (capacity_sum_[static_cast<std::size_t>(k)] > rb_budget_ * (1.0 + 1e-9)) {
        stats.capacity_failures += capacity_count_[static_cast<std::size_t>(k)];
        stats.errors.push_back("BAI " + std::to_string(k) +
                               " assigned more RBs than the budget");
      }
    }
    stats.delay_ms.insert(stats.delay_ms.end(), delay_ms_.begin(), delay_ms_.end());
    stats.admit_ms.insert(stats.admit_ms.end(), admit_ms_.begin(), admit_ms_.end());
    stats.lag_ms.insert(stats.lag_ms.end(), lag_ms_.begin(), lag_ms_.end());
    stats.frames_in += frames_in_;
    stats.errors.insert(stats.errors.end(), errors_.begin(), errors_.end());
  }

 private:
  void Loop() {
    PinTo(cpu_);
    epoll_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_ < 0) {
      errors_.push_back("epoll_create1 failed");
      return;
    }
    std::size_t next = 0;
    std::vector<epoll_event> events(512);
    while (!stop_.load()) {
      const double now = NowS();
      while (next < sessions_.size() && sessions_[next].due_s <= now) {
        Connect(next++);
      }
      int timeout_ms = 2;
      if (next < sessions_.size()) {
        const double wait_ms = (sessions_[next].due_s - NowS()) * 1e3;
        timeout_ms = std::clamp(static_cast<int>(std::ceil(wait_ms)), 0, 2);
      }
      const int n = epoll_wait(epoll_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
      for (int i = 0; i < n; ++i) {
        OnEvent(events[static_cast<std::size_t>(i)].data.u32,
                events[static_cast<std::size_t>(i)].events);
      }
    }
    for (Session& s : sessions_) {
      if (s.fd >= 0) ::close(s.fd);
      s.fd = -1;
    }
    ::close(epoll_);
  }

  void Connect(std::size_t index) {
    Session& s = sessions_[index];
    lag_ms_.push_back((NowS() - s.due_s) * 1e3);
    s.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (s.fd < 0) {
      Fail(index, "socket() failed");
      return;
    }
    const int one = 1;
    ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(s.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    epoll_event ev{};
    ev.data.u32 = static_cast<std::uint32_t>(index);
    ev.events = EPOLLIN | EPOLLOUT;
    if (rc != 0 && errno != EINPROGRESS) {
      Fail(index, "");
      return;
    }
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, s.fd, &ev);
    s.state = SessionState::kConnecting;
    if (rc == 0) OnConnected(index);
  }

  void OnConnected(std::size_t index) {
    Session& s = sessions_[index];
    s.state = SessionState::kAwaitingVerdict;
    flare::ClientInfo info;
    info.flow = s.flow;
    info.ladder_bps = ladder_bps_;
    flare::AppendFrame(flare::FrameType::kClientInfo,
                       flare::EncodeClientInfo(info), &s.outbox);
    Flush(index);
  }

  void OnEvent(std::uint32_t index, std::uint32_t events) {
    Session& s = sessions_[index];
    if (s.fd < 0) return;
    if (s.state == SessionState::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(s.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Fail(index, "");
        return;
      }
      OnConnected(index);
      if (s.fd < 0) return;
    } else if ((events & EPOLLOUT) != 0) {
      Flush(index);
      if (s.fd < 0) return;
    }
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) Read(index);
  }

  void Read(std::uint32_t index) {
    Session& s = sessions_[index];
    char buf[16384];
    bool closed = false;
    for (;;) {
      const ssize_t got = ::recv(s.fd, buf, sizeof(buf), 0);
      if (got > 0) {
        s.inbox.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      closed = true;
      break;
    }
    const double now = NowS();
    flare::Frame frame;
    for (;;) {
      const flare::FrameParseStatus status = flare::ParseFrame(&s.inbox, &frame);
      if (status == flare::FrameParseStatus::kNeedMore) break;
      if (status == flare::FrameParseStatus::kError) {
        Fail(index, "malformed frame from the service");
        return;
      }
      ++frames_in_;
      OnFrame(index, frame, now);
      if (s.fd < 0) return;
    }
    if (closed) Fail(index, "");
  }

  void OnFrame(std::uint32_t index, const flare::Frame& frame, double now) {
    Session& s = sessions_[index];
    switch (frame.type) {
      case flare::FrameType::kWelcome: {
        const auto flow = flare::DecodeWelcome(frame.payload);
        if (s.state != SessionState::kAwaitingVerdict || !flow ||
            *flow != s.flow) {
          Fail(index, "unexpected welcome");
          return;
        }
        s.state = SessionState::kAdmitted;
        admit_ms_.push_back((now - s.due_s) * 1e3);
        admitted_.fetch_add(1);
        verdicts_.fetch_add(1);
        return;
      }
      case flare::FrameType::kOverload:
        if (s.state == SessionState::kAwaitingVerdict) {
          s.state = SessionState::kBlocked;
          verdicts_.fetch_add(1);
          Close(index);
        } else {
          Fail(index, "session closed by the service");
        }
        return;
      case flare::FrameType::kAssignment:
        OnAssignment(index, frame, now);
        return;
      default:
        Fail(index, "client-bound frame of a server type");
        return;
    }
  }

  void OnAssignment(std::uint32_t index, const flare::Frame& frame,
                    double now) {
    Session& s = sessions_[index];
    const auto msg = flare::DecodeRateAssignment(frame.payload);
    if (s.state != SessionState::kAdmitted || !msg || msg->flow != s.flow) {
      Fail(index, "unexpected assignment");
      return;
    }
    if (msg->level < 0 ||
        msg->level >= static_cast<int>(ladder_bps_.size()) ||
        ladder_bps_[static_cast<std::size_t>(msg->level)] != msg->rate_bps) {
      Fail(index, "assigned rate is not a rung of the session's ladder");
      return;
    }
    const int before = s.assignments++;
    if (before + 1 == kWarmupTicks) warmed_.fetch_add(1);
    int tick = -1;
    if (measuring_.load()) {
      if (!s.sync_known) {
        s.sync_known = true;
        s.synced = before == kWarmupTicks;
      }
      tick = s.synced ? before - kWarmupTicks : -1;
    }
    if (tick >= 0 && tick < static_cast<int>(capacity_sum_.size())) {
      delay_ms_.push_back((now - (t0_.load() + tick * kBaiS)) * 1e3);
      capacity_sum_[static_cast<std::size_t>(tick)] +=
          msg->rate_bps / s.bits_per_rb;
      ++capacity_count_[static_cast<std::size_t>(tick)];
      if (s.measured > 0 && msg->level != s.last_level) ++s.switches;
      ++s.measured;
      s.rate_sum_bps += msg->rate_bps;
      measured_total_.fetch_add(1);
    }
    s.last_level = msg->level;

    flare::FlowStatsReport report;
    report.flow = s.flow;
    report.type = flare::FlowType::kVideo;
    report.tx_bytes = s.report_bytes;
    report.rbs = kReportRbs;
    report.throughput_bps = static_cast<double>(s.report_bytes) * 8.0 / kBaiS;
    const std::string payload = flare::EncodeStatsReport(report);
    if (traced_ && tick >= 0) {
      flare::TraceContext ctx;
      ctx.trace_id = (static_cast<std::uint64_t>(s.flow) << 20) |
                     static_cast<std::uint64_t>(tick + 1);
      ctx.client_send_us = static_cast<std::int64_t>(NowS() * 1e6);
      flare::AppendFrame(flare::FrameType::kStatsReport, payload, &ctx,
                         &s.outbox);
    } else {
      flare::AppendFrame(flare::FrameType::kStatsReport, payload, &s.outbox);
    }
    Flush(index);
  }

  void Flush(std::uint32_t index) {
    Session& s = sessions_[index];
    while (!s.outbox.empty()) {
      const ssize_t sent =
          ::send(s.fd, s.outbox.data(), s.outbox.size(), MSG_NOSIGNAL);
      if (sent > 0) {
        s.outbox.erase(0, static_cast<std::size_t>(sent));
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Fail(index, "");
      return;
    }
    epoll_event ev{};
    ev.data.u32 = index;
    ev.events = EPOLLIN | (s.outbox.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    ::epoll_ctl(epoll_, EPOLL_CTL_MOD, s.fd, &ev);
  }

  void Close(std::uint32_t index) {
    Session& s = sessions_[index];
    if (s.fd < 0) return;
    ::epoll_ctl(epoll_, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    s.fd = -1;
  }

  /// The session ends as failed. A reason is recorded for protocol
  /// violations; connection failures are counted only.
  void Fail(std::uint32_t index, const std::string& reason) {
    Session& s = sessions_[index];
    if (s.state == SessionState::kFailed) return;
    const bool had_verdict = s.state == SessionState::kAdmitted ||
                             s.state == SessionState::kBlocked;
    if (s.state == SessionState::kAdmitted) admitted_.fetch_sub(1);
    s.state = SessionState::kFailed;
    if (!had_verdict) verdicts_.fetch_add(1);
    if (!reason.empty()) errors_.push_back("flow " + std::to_string(s.flow) + ": " + reason);
    Close(index);
  }

  std::vector<Session> sessions_;
  std::uint16_t port_;
  int cpu_;
  std::vector<double> ladder_bps_;
  double rb_budget_;
  bool traced_;
  int epoll_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> measuring_{false};
  std::atomic<double> t0_{0.0};
  std::atomic<int> verdicts_{0};
  std::atomic<int> admitted_{0};
  std::atomic<int> warmed_{0};
  std::atomic<std::uint64_t> measured_total_{0};
  std::vector<double> capacity_sum_;
  std::vector<std::uint64_t> capacity_count_;
  std::vector<double> delay_ms_;
  std::vector<double> admit_ms_;
  std::vector<double> lag_ms_;
  std::uint64_t frames_in_ = 0;
  std::vector<std::string> errors_;
  std::thread thread_;  // last: joins before the state above is destroyed
};

flare::OneApiServiceOptions ServiceOptions(int sessions,
                                           const std::string& trace_json) {
  flare::OneApiServiceOptions options;
  options.bai_ms = 0;  // ticks come only from the benchmark's tick thread
  options.num_rbs = static_cast<int>(std::lround(kRbPerSession * sessions));
  options.efficiency_smoothing = 1.0;
  options.trace_json = trace_json;
  return options;
}

/// One population step on a fresh service.
StepStats RunStep(int n_sessions, std::uint64_t seed, int measured_ticks,
                  const std::string& trace_json,
                  const std::array<int, 3>& cpus) {
  StepStats stats;
  stats.sessions = n_sessions;
  stats.measured_ticks = measured_ticks;
  const flare::OneApiServiceOptions options =
      ServiceOptions(n_sessions, trace_json);

  PinTo(cpus[0]);  // the service's IO thread inherits this CPU
  const double setup_start = NowS();
  flare::OneApiService service(options);
  const bool started = service.Start();
  stats.setup_s = NowS() - setup_start;
  PinTo(cpus[2]);
  if (!started) {
    stats.errors.push_back("service did not start");
    stats.failed = static_cast<std::uint64_t>(n_sessions);
    return stats;
  }

  std::vector<double> ladder_bps;
  for (double kbps : flare::TestbedLadderKbps()) ladder_bps.push_back(kbps * 1e3);
  flare::Rng rng(seed);
  std::vector<Session> sessions(static_cast<std::size_t>(n_sessions));
  double due = NowS() + 0.05;
  for (int i = 0; i < n_sessions; ++i) {
    Session& s = sessions[static_cast<std::size_t>(i)];
    s.flow = static_cast<flare::FlowId>(i + 1);
    s.report_bytes = static_cast<std::uint64_t>(
        rng.UniformInt(kMinReportBytes, kMaxReportBytes));
    s.bits_per_rb = ServerBitsPerRb(s.report_bytes);
    due += rng.Exponential(1.0 / kArrivalsPerS);
    s.due_s = due;
  }
  const double rb_budget = static_cast<double>(options.num_rbs) * 1000.0 *
                           options.params.max_video_fraction;
  SessionClient client(std::move(sessions), service.port(), ladder_bps,
                       rb_budget, measured_ticks, !trace_json.empty(), cpus[1]);
  client.Start();

  // Ramp: every session reaches a verdict before the first tick.
  if (!WaitFor(due - NowS() + kVerdictTimeoutS,
               [&] { return client.verdicts() == n_sessions; })) {
    stats.errors.push_back("sessions without an admission verdict");
  }
  const int admitted = client.admitted();
  const double warm_start = NowS();
  for (int w = 0; w < kWarmupTicks; ++w) {
    SleepUntil(warm_start + w * kBaiS);
    service.TriggerTick();
  }
  WaitFor(kSyncTimeoutS, [&] {
    return client.warmed() >= admitted &&
           service.stats_received() >=
               static_cast<std::uint64_t>(admitted) * kWarmupTicks;
  });

  const double t0 = NowS() + kBaiS;
  client.BeginMeasuring(t0);
  for (int k = 0; k < measured_ticks; ++k) {
    SleepUntil(t0 + k * kBaiS);
    const double tick_start = NowS();
    service.TriggerTick();
    stats.tick_ms.push_back((NowS() - tick_start) * 1e3);
  }
  WaitFor(kDrainTimeoutS, [&] {
    return client.measured_total() >=
           static_cast<std::uint64_t>(admitted) *
               static_cast<std::uint64_t>(measured_ticks);
  });
  client.Stop();
  client.Collect(stats);
  stats.assignments_sent = service.assignments_sent();
  stats.assignments_dropped = service.assignments_dropped();
  stats.overload_rejects = service.overload_rejects() + service.admission_rejects();
  service.Stop();
  std::fprintf(stderr,
               "control_plane n=%d: admitted %llu blocked %llu failed %llu, "
               "tick p50 %.2f p90 %.2f ms, delay p50 %.2f p99 %.2f ms\n",
               n_sessions, static_cast<unsigned long long>(stats.admitted),
               static_cast<unsigned long long>(stats.blocked),
               static_cast<unsigned long long>(stats.failed),
               Quantile(stats.tick_ms, 0.5), Quantile(stats.tick_ms, 0.9),
               Quantile(stats.delay_ms, 0.5), Quantile(stats.delay_ms, 0.99));
  return stats;
}

/// Times construction + Start() of idle services into `samples`; false
/// when a service does not start.
bool TimeSetups(std::vector<double>& samples, int cpu) {
  PinTo(cpu);
  for (int rep = 0; rep < kSetupRepsPerStep; ++rep) {
    const double start = NowS();
    flare::OneApiService service(ServiceOptions(kReferenceSessions, ""));
    const bool started = service.Start();
    samples.push_back(NowS() - start);
    if (!started) return false;
    service.Stop();
  }
  return true;
}

/// Stage durations from the service's trace export.
struct TraceStages {
  std::map<std::string, std::vector<double>> stage_us;
  std::vector<double> tick_us;
  std::vector<double> solve_us;
  std::string error;
};

TraceStages ReadTrace(const std::string& path) {
  TraceStages out;
  flare::JsonValue doc;
  if (!flare::ParseJsonFile(path, &doc, &out.error)) return out;
  const flare::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    out.error = path + ": no traceEvents array";
    return out;
  }
  for (const flare::JsonValue& event : events->items()) {
    const flare::JsonValue* cat = event.Find("cat");
    const flare::JsonValue* name = event.Find("name");
    const flare::JsonValue* dur = event.Find("dur");
    if (cat == nullptr || name == nullptr || dur == nullptr) continue;
    const std::string& c = cat->AsString();
    const std::string& n = name->AsString();
    if (c == "svc.stage") out.stage_us[n].push_back(dur->AsNumber());
    if (c == "svc" && n == "tick") out.tick_us.push_back(dur->AsNumber());
    if (c == "svc" && n == "solve") out.solve_us.push_back(dur->AsNumber());
    if (c == "svc" && n == "admit_request") {
      const flare::JsonValue* admit = event.FindPath({"args", "admit_us"});
      if (admit != nullptr) out.stage_us["admit"].push_back(admit->AsNumber());
    }
  }
  return out;
}

/// Checks and ledger shared by every step.
void CheckStep(RunResult& result, const StepStats& st) {
  const std::string step = "control_plane n=" + std::to_string(st.sessions);
  result.attempted += static_cast<std::uint64_t>(st.sessions);
  result.failed += st.failed + st.unfinished;
  result.Check(st.unfinished == 0,
               step + ": " + std::to_string(st.unfinished) +
                   " sessions ended without an outcome");
  result.Check(st.admitted + st.blocked + st.failed ==
                   static_cast<std::uint64_t>(st.sessions),
               step + ": session ledger does not balance");
  result.Check(st.capacity_failures == 0,
               step + ": a BAI broke the capacity constraint");
  result.Check(static_cast<int>(st.tick_ms.size()) == st.measured_ticks,
               step + ": missing ticks");
  for (const std::string& e : st.errors) result.Fail(step + ": " + e);
}

void RaiseFdLimit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

RunResult RunControlPlaneOn(const Options& options,
                            const std::array<int, 3>& cpus) {
  RunResult result;
  // The reference step gets half the measuring time; the others share
  // the rest.
  const auto ticks_for = [&options](int sessions) {
    const double share = sessions == kReferenceSessions ? 0.5 : 0.5 / 3.0;
    return std::max(10, static_cast<int>(std::lround(options.seconds * share / kBaiS)));
  };

  std::vector<double> setup_s;
  std::map<int, StepStats> steps;
  for (std::size_t i = 0; i < kSteps.size(); ++i) {
    if (!TimeSetups(setup_s, cpus[0])) {
      result.Fail("control_plane: service did not start");
      return result;
    }
    const int n = kSteps[i];
    steps[n] = RunStep(n, SubSeed(options.seed, static_cast<int>(i)),
                       ticks_for(n), "", cpus);
    CheckStep(result, steps[n]);
    setup_s.push_back(steps[n].setup_s);
  }
  const StepStats& ref = steps[kReferenceSessions];

  if (!options.trace) {
    // The service decides one cell's BAI per tick.
    EmitEndToEnd(result, Median(ref.tick_ms), Median(setup_s),
                 Mean(ref.mean_rate_kbps), flare::JainIndex(ref.mean_rate_kbps));
    return result;
  }

  LayerValues values;
  std::uint64_t misses = 0;
  std::uint64_t expected = 0;
  int capacity = 0;
  std::vector<double> lag_ms;
  for (const auto& [n, st] : steps) {
    misses += st.misses();
    expected += st.expected;
    if (Quantile(st.tick_ms, 0.9) <= kTickBudgetMs && st.misses() == 0) {
      capacity = std::max(capacity, n);
    }
    lag_ms.insert(lag_ms.end(), st.lag_ms.begin(), st.lag_ms.end());
    if (n != kReferenceSessions) {
      values["svc.tick_p90_ms.n" + std::to_string(n)] = Quantile(st.tick_ms, 0.9);
    }
    values["svc.overload_rejects"] += double(st.overload_rejects);
    values["svc.assignments_dropped"] += double(st.assignments_dropped);
  }
  values["tick_p50_ms"] = Quantile(ref.tick_ms, 0.5);
  values["tick_p90_ms"] = Quantile(ref.tick_ms, 0.9);
  values["assign_delay_p50_ms"] = Quantile(ref.delay_ms, 0.5);
  values["assign_delay_p99_ms"] = Quantile(ref.delay_ms, 0.99);
  values["admit_p99_ms"] = Quantile(ref.admit_ms, 0.99);
  values["miss_ratio"] = expected > 0 ? double(misses) / double(expected) : 0.0;
  values["session_capacity"] = capacity;
  values["switches"] = ref.mean_rate_kbps.empty()
                           ? 0.0
                           : double(ref.switches) / double(ref.mean_rate_kbps.size());
  values["svc.us_per_session_tick"] =
      Quantile(ref.tick_ms, 0.5) * 1e3 / kReferenceSessions;
  values["svc.assignments"] = double(ref.assignments_sent);
  values["client.lag_ms.p99"] = Quantile(lag_ms, 0.99);
  values["client.frames_in"] = double(ref.frames_in);

  // Traced pass: the reference population again, with request tracing on
  // and every measured stats report carrying a trace context.
  const std::string trace_path = options.work_dir + "/control_plane_trace.json";
  const StepStats traced = RunStep(kReferenceSessions, SubSeed(options.seed, 2),
                                   kTracedTicks, trace_path, cpus);
  CheckStep(result, traced);
  const TraceStages trace = ReadTrace(trace_path);
  std::remove(trace_path.c_str());
  if (!trace.error.empty()) result.Fail("control_plane: " + trace.error);
  for (const char* stage : {"recv", "parse", "admit", "queue_wait", "solve",
                            "encode", "outbox_drain"}) {
    const auto it = trace.stage_us.find(stage);
    if (it == trace.stage_us.end() || it->second.empty()) {
      result.Fail(std::string("control_plane: no spans for stage ") + stage);
      continue;
    }
    double sum = 0.0;
    for (double us : it->second) sum += us;
    const std::string base = std::string("svc.stage.") + stage + "_us";
    values[base + ".sum"] = sum;
    values[base + ".p50"] = Quantile(it->second, 0.5);
    values[base + ".p99"] = Quantile(it->second, 0.99);
  }
  double solve_sum = 0.0;
  for (double us : trace.solve_us) solve_sum += us;
  values["core.solve_ms"] = solve_sum / 1e3;
  values["core.solve_us.p50"] = Quantile(trace.solve_us, 0.5);
  values["core.solve_us.p99"] = Quantile(trace.solve_us, 0.99);
  values["core.bais"] = double(trace.tick_us.size());
  values["svc.tick_minus_solve_ms"] =
      (Mean(trace.tick_us) - Mean(trace.solve_us)) / 1e3;
  values["obs.trace_overhead_pct"] =
      (Mean(traced.tick_ms) / Mean(ref.tick_ms) - 1.0) * 100.0;
  result.Check(trace.tick_us.size() >= static_cast<std::size_t>(kTracedTicks),
               "control_plane: traced ticks missing from the export");
  EmitPerLayer(result, values);
  return result;
}

}  // namespace

RunResult RunControlPlane(const Options& options) {
  RaiseFdLimit();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  RunResult result = RunControlPlaneOn(options, ThreadCpus(allowed));
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return result;
}

}  // namespace perfbench
