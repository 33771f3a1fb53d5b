#include "report.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>

#include "obs/span_trace.h"
#include "util/stats.h"

namespace perfbench {

void RunResult::Add(const std::string& name, double value) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics.push_back({name, value});
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void RunResult::Check(bool ok, const std::string& why) {
  if (!ok) Fail(why);
}

namespace {

std::string Number(double value) {
  // A non-finite value has already failed the run (RunResult::Add); 0
  // keeps the envelope valid JSON with numeric values.
  if (!std::isfinite(value)) return "0";
  char buf[64];
  // Shortest round-trip form: every digit the measurement has.
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

void PrintResult(const RunResult& result, std::ostream& out) {
  out << "{\"correct\":" << (result.correct ? "true" : "false")
      << ",\"attempted\":" << std::max<std::uint64_t>(result.attempted, 1)
      << ",\"failed\":" << result.failed << ",\"values\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ",") << flare::JsonQuote(m.name) << ":"
        << Number(m.value);
  }
  out << "}}\n";
}

double Quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  flare::Cdf cdf;
  cdf.AddAll(samples);
  return cdf.Quantile(q);
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  // VmHWM belongs to this address space. getrusage's ru_maxrss is not
  // used: it survives execve, so it would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t SubSeed(std::uint64_t seed, int index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

}  // namespace perfbench
