#include "obs/span_trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>

#include "util/csv.h"
#include "util/logging.h"

namespace flare {
namespace {

/// Microsecond timestamps printed as fixed-point with ns precision —
/// %.6g would collapse distinct timestamps past 100 s of simulated time.
std::string FormatMicros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

const char* LaneName(int lane) {
  switch (lane) {
    case kLaneControl:
      return "control";
    case kLaneMac:
      return "mac";
    case kLanePlayer:
      return "player";
    case kLaneRunner:
      return "runner";
    default:
      return "lane";
  }
}

std::string ProcessName(int pid) {
  if (pid == 0) return "runner";
  return "cell" + std::to_string(pid - 1);
}

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteCommonFields(std::ostream& out, const TraceEvent& e) {
  out << "\"ts\":" << FormatMicros(e.ts_us) << ",\"pid\":" << e.pid
      << ",\"tid\":" << e.tid;
}

/// An instant's Perfetto args: its subject (flow, client, nonzero value)
/// ahead of the site's own members.
void WriteInstantArgs(std::ostream& out, const TraceEvent& e) {
  std::string members;
  if (e.flow != kInvalidFlow) members += ",\"flow\":" + std::to_string(e.flow);
  if (e.client >= 0) members += ",\"client\":" + std::to_string(e.client);
  if (e.value != 0.0) members += ",\"value\":" + JsonNumber(e.value);
  if (e.args.size() > 2) members += "," + e.args.substr(1, e.args.size() - 2);
  if (!members.empty()) out << ",\"args\":{" << members.substr(1) << '}';
}

bool FlightOrder(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.ts_us, a.pid, a.seq) < std::tie(b.ts_us, b.pid, b.seq);
}

void WriteFlightRecord(std::ostream& out, const TraceEvent& e) {
  out << "{\"t_s\": " << JsonNumber(e.ts_us / 1e6) << ", \"cell\": "
      << e.cell() << ", \"seq\": " << e.seq
      << ", \"kind\": " << JsonQuote(e.name);
  if (e.flow != kInvalidFlow) out << ", \"flow\": " << e.flow;
  if (e.client >= 0) out << ", \"client\": " << e.client;
  out << ", \"value\": " << JsonNumber(e.value);
  if (!e.args.empty()) out << ", \"args\": " << e.args;
  out << '}';
}

void WriteFlightList(std::ostream& out, const std::vector<TraceEvent>& events) {
  bool first = true;
  for (const TraceEvent& e : events) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    WriteFlightRecord(out, e);
  }
}

}  // namespace

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

SpanTracer::SpanTracer(std::size_t flight_window, bool timeline)
    : timeline_(timeline),
      window_(flight_window == 0 ? kDefaultFlightWindow : flight_window) {}

void SpanTracer::CompleteSpan(int lane, const char* cat, const char* name,
                              double ts_us, double dur_us, std::string args) {
  if (!timeline_) return;
  TraceEvent e;
  e.ts_us = ts_us;
  e.dur_us = deterministic_ ? 0.0 : dur_us;
  e.ph = 'X';
  e.pid = pid_;
  e.tid = lane;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void SpanTracer::Counter(int lane, const char* name, double ts_us,
                         double value) {
  if (!timeline_) return;
  TraceEvent e;
  e.ts_us = ts_us;
  e.ph = 'C';
  e.pid = pid_;
  e.tid = lane;
  e.cat = "counter";
  e.name = name;
  e.value = value;
  events_.push_back(std::move(e));
}

void SpanTracer::Instant(int lane, const char* cat, const char* name,
                         double ts_us, std::string args, FlowId flow,
                         int client, double value) {
  TraceEvent e;
  e.ts_us = ts_us;
  e.ph = 'i';
  e.pid = pid_;
  e.tid = lane;
  e.cat = cat;
  e.name = name;
  e.value = value;
  e.seq = recorded_++;
  e.flow = flow;
  e.client = client;
  e.args = std::move(args);
  if (timeline_) events_.push_back(e);
  if (merged_ || ring_.size() < window_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[next_] = std::move(e);
  next_ = (next_ + 1) % window_;
  ++dropped_;
}

std::vector<TraceEvent> SpanTracer::RecentInstants() const {
  if (merged_ || ring_.size() < window_) return ring_;
  // Full ring: next_ points at the oldest entry.
  std::vector<TraceEvent> events(ring_.begin() + next_, ring_.end());
  events.insert(events.end(), ring_.begin(), ring_.begin() + next_);
  return events;
}

std::uint64_t SpanTracer::CollectEventsSince(
    std::uint64_t from_seq, std::vector<TraceEvent>* out) const {
  // Walk the ring oldest-first in place: only the unseen instants are
  // copied (next_ stays 0 until the ring first fills).
  const std::size_t oldest = merged_ ? 0 : next_;
  std::uint64_t next_seq = from_seq;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& e = ring_[(oldest + i) % ring_.size()];
    if (e.seq < from_seq) continue;
    next_seq = std::max(next_seq, e.seq + 1);
    out->push_back(e);
  }
  return next_seq;
}

void SpanTracer::TriggerSnapshot(const char* reason, double t_s) {
  if (triggered_) return;
  triggered_ = true;
  trigger_reason_ = reason != nullptr ? reason : "";
  trigger_t_s_ = t_s;
  trigger_pid_ = pid_;
  snapshot_ = RecentInstants();
}

void SpanTracer::AbsorbShard(const SpanTracer& shard) {
  events_.insert(events_.end(), shard.events_.begin(), shard.events_.end());
  if (!merged_) {
    ring_ = RecentInstants();
    merged_ = true;
  }
  const std::vector<TraceEvent> window = shard.RecentInstants();
  ring_.insert(ring_.end(), window.begin(), window.end());
  recorded_ += shard.recorded_;
  dropped_ += shard.dropped_;
  if (!shard.triggered_) return;
  if (!triggered_ || std::tie(shard.trigger_t_s_, shard.trigger_pid_) <
                         std::tie(trigger_t_s_, trigger_pid_)) {
    triggered_ = true;
    trigger_reason_ = shard.trigger_reason_;
    trigger_t_s_ = shard.trigger_t_s_;
    trigger_pid_ = shard.trigger_pid_;
  }
  snapshot_.insert(snapshot_.end(), shard.snapshot_.begin(),
                   shard.snapshot_.end());
}

void SpanTracer::SortMergedEvents() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_us, a.pid, a.tid) <
                            std::tie(b.ts_us, b.pid, b.tid);
                   });
  // An unmerged window stays a ring in record order.
  if (!merged_) return;
  std::stable_sort(ring_.begin(), ring_.end(), FlightOrder);
  std::stable_sort(snapshot_.begin(), snapshot_.end(), FlightOrder);
}

void SpanTracer::WriteJson(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata first: name each process (cell) and lane so Perfetto shows
  // "cell0 / control" instead of bare pid/tid numbers.
  std::set<int> pids;
  std::set<std::pair<int, int>> lanes;
  for (const TraceEvent& e : events_) {
    pids.insert(e.pid);
    lanes.insert({e.pid, e.tid});
  }
  for (int pid : pids) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":" << JsonQuote(ProcessName(pid))
        << "}}";
  }
  for (const auto& [pid, tid] : lanes) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":"
        << JsonQuote(LaneName(tid)) << "}}";
  }

  for (const TraceEvent& e : events_) {
    sep();
    out << "{\"name\":" << JsonQuote(e.name) << ",\"cat\":" << JsonQuote(e.cat)
        << ",\"ph\":\"" << e.ph << "\",";
    WriteCommonFields(out, e);
    switch (e.ph) {
      case 'X':
        out << ",\"dur\":" << FormatMicros(e.dur_us);
        if (!e.args.empty()) out << ",\"args\":" << e.args;
        break;
      case 'i':
        out << ",\"s\":\"t\"";
        WriteInstantArgs(out, e);
        break;
      case 'C':
        out << ",\"args\":{\"value\":" << FormatMicros(e.value) << "}";
        break;
      default:
        break;
    }
    out << "}";
  }
  out << "]}\n";
}

bool SpanTracer::ExportJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    FLOG_WARN << "SpanTracer: cannot open " << path;
    return false;
  }
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    FLOG_WARN << "SpanTracer: short write to " << path;
    return false;
  }
  return true;
}

void SpanTracer::WriteFlightJson(std::ostream& out,
                                 const std::string& reason) const {
  out << "{\"reason\": " << JsonQuote(reason) << ",\n\"trigger\": ";
  if (triggered_) {
    out << "{\"reason\": " << JsonQuote(trigger_reason_)
        << ", \"t_s\": " << JsonNumber(trigger_t_s_)
        << ", \"cell\": " << trigger_pid_ - 1 << '}';
  } else {
    out << "null";
  }
  out << ",\n\"capacity\": " << window_ << ", \"recorded\": " << recorded_
      << ", \"dropped\": " << dropped_ << ",\n\"snapshot\": [";
  WriteFlightList(out, snapshot_);
  out << "\n],\n\"recent\": [";
  WriteFlightList(out, RecentInstants());
  out << "\n]}\n";
}

bool SpanTracer::DumpPostmortem(const std::string& path,
                                const std::string& reason) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteFlightJson(out, reason);
  return static_cast<bool>(out);
}

SpanScope::SpanScope(SpanTracer* tracer, int lane, const char* cat,
                     const char* name)
    : tracer_(TimelineOf(tracer)), lane_(lane), cat_(cat), name_(name) {
  if (tracer_ == nullptr) return;
  begin_ts_us_ = tracer_->now_us();
  if (!tracer_->deterministic()) wall_begin_ns_ = SteadyNowNs();
}

void SpanScope::Close() {
  if (tracer_ == nullptr) return;
  double dur_us = 0.0;
  if (!tracer_->deterministic()) {
    dur_us = static_cast<double>(SteadyNowNs() - wall_begin_ns_) / 1000.0;
  }
  tracer_->CompleteSpan(lane_, cat_, name_, begin_ts_us_, dur_us,
                        std::move(args_));
  tracer_ = nullptr;
}

namespace {

const SpanTracer* g_signal_tracer = nullptr;
std::string g_signal_path;
volatile std::sig_atomic_t g_signal_dumped = 0;

void FatalSignalHandler(int signum) {
  if (g_signal_dumped == 0 && g_signal_tracer != nullptr) {
    g_signal_dumped = 1;
    g_signal_tracer->DumpPostmortem(
        g_signal_path, "fatal-signal:" + std::to_string(signum));
  }
  std::signal(signum, SIG_DFL);
  std::raise(signum);
}

}  // namespace

void InstallFatalSignalPostmortem(const SpanTracer* tracer, std::string path) {
  g_signal_tracer = tracer;
  g_signal_path = std::move(path);
  const auto handler = tracer != nullptr ? FatalSignalHandler : SIG_DFL;
  std::signal(SIGSEGV, handler);
  std::signal(SIGABRT, handler);
  std::signal(SIGFPE, handler);
}

}  // namespace flare
