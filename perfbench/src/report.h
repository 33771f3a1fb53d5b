// Result envelope and measurement helpers shared by every workload.
//
// Every timing quantile is computed from raw samples (linear
// interpolation between order statistics), never from the program's
// bucketed histograms, whose 10/50/100 ms buckets cannot tell a 26 ms
// tick from a 49 ms one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for scratch files such as the
  /// control plane's trace export.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
};

/// One run's outcome. `attempted`/`failed` count the workload's
/// operations (scenario runs or control-plane sessions); any failed check
/// clears `correct` and records why.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value);
  /// Record a failed output check; the run then reports correct=false.
  void Fail(const std::string& why);
  /// Fail(why) unless `ok`.
  void Check(bool ok, const std::string& why);
};

/// Last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "values":{"<metric>":<value>,..}}; run.py adds the units.
void PrintResult(const RunResult& result, std::ostream& out);

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, as flare::Cdf); NaN when `samples` is empty, so a missing
/// measurement fails the run instead of reading 0.
double Quantile(const std::vector<double>& samples, double q);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Steady-clock seconds since an arbitrary epoch.
double NowS();
/// Peak resident set size of this process so far, MB.
double PeakRssMb();

/// The index-th input seed derived from the run's --seed (SplitMix64), so
/// every workload draws a fixed, seed-determined set of inputs.
std::uint64_t SubSeed(std::uint64_t seed, int index);

}  // namespace perfbench
