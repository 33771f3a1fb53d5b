// flare_perfbench: one run of one benchmark workload.
//
//   flare_perfbench --workload <paper_static|multicell_churn|control_plane>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--source-id <id>]
//
// Prints a provenance line, then the measured values as the last line of
// stdout. --trace 0 reports the end-to-end metrics from observer-free
// runs; --trace 1 reports the per-layer metrics from a separate traced
// run. run.py turns the values into the result envelope, taking names and
// units from BENCHMARK.json. perfbench/README.md describes each workload
// and metric.
#include <sched.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "obs/span_trace.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// CPUs this process may run on, as `nproc` counts them.
int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int Usage(const char* why) {
  std::cerr << "flare_perfbench: " << why
            << "\nusage: flare_perfbench --workload <paper_static|"
               "multicell_churn|control_plane> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--source-id <id>]\n";
  return 2;
}

}  // namespace

void EmitEndToEnd(RunResult& result, double cell_bai_ms, double setup_s,
                  double video_kbps, double jain) {
  result.Add("cell_bai_ms", cell_bai_ms);
  result.Add("setup_s", setup_s);
  result.Add("peak_rss_mb", PeakRssMb());
  result.Add("video_kbps", video_kbps);
  result.Add("jain", jain);
}

void EmitPerLayer(RunResult& result, const LayerValues& values) {
  for (const auto& [name, value] : values) result.Add(name, value);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::cerr << "flare_perfbench: refusing to report from an unoptimised "
               "build (build type "
            << FLARE_PERFBENCH_BUILD_TYPE << ")\n";
  return 3;
#endif
  Options options;
  std::string source_id = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");

  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "paper_static") run = RunPaperStatic;
  if (options.workload == "multicell_churn") run = RunMulticellChurn;
  if (options.workload == "control_plane") run = RunControlPlane;
  if (run == nullptr) return Usage(("unknown workload " + options.workload).c_str());

  std::cout << "{\"provenance\":{\"source\":" << flare::JsonQuote(source_id)
            << ",\"nproc\":" << AllowedCpus()
            << ",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency()
            << ",\"build_type\":\"" << FLARE_PERFBENCH_BUILD_TYPE
            << "\",\"workload\":" << flare::JsonQuote(options.workload)
            << ",\"seed\":" << options.seed
            << ",\"seconds\":" << options.seconds
            << ",\"trace\":" << (options.trace ? 1 : 0) << "}}" << std::endl;

  const RunResult result = run(options);
  for (const std::string& error : result.errors) {
    std::cerr << "flare_perfbench: check failed: " << error << "\n";
  }
  PrintResult(result, std::cout);
  return 0;
}
