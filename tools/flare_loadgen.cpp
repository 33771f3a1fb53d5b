// flare_loadgen — deterministic load generator for flare_oneapid.
//
// Replays a churn-engine session schedule (Poisson arrivals, lognormal
// holds, one seed = one workload) against a live control-plane server
// over real sockets, measuring assignment-turnaround p50/p95/p99,
// blocking rate and churn capacity. With report= set, the measured SLOs
// export through BenchJsonWriter as bench_results/BENCH_<name>.json so
// flare_report gates them in CI (assign_turnaround.p99_us and
// blocking_rate are default watches).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "netio/http_client.h"
#include "obs/metrics.h"
#include "scenario/experiment.h"
#include "svc/loadgen.h"
#include "svc/request_trace.h"
#include "top_core.h"
#include "util/config.h"

namespace {

using namespace flare;

void PrintUsage(std::FILE* out) {
  std::fprintf(out, R"(usage: flare_loadgen port=N [key=value ...]

Deterministic churned load against a flare_oneapid server.

Keys:
  port=N            server port (required)
  host=ADDR         server host (127.0.0.1)
  sessions=N        total sessions to offer (100)
  arrival_rate=F    Poisson arrivals per schedule second (10)
  mean_hold_s=F     mean session holding time, schedule seconds (2)
  sigma=F           lognormal hold shape (1.0)
  seed=N            schedule seed (1)
  time_scale=F      replay speedup: wall = schedule / F (1.0)
  max_wall_s=F      abort the replay after F wall seconds (120)
  trace=0|1         attach a trace context to every stats report and
                    count echoed assignments (0)
  trace_json=PATH   write client-side request spans as Perfetto JSON;
                    merge with the daemon's trace via tools/flare_trace
                    (off; implies trace=1)
  scrape_port=N     after the run, scrape the daemon's telemetry
                    /metrics on this port and fold the
                    svc.oneapi.stage.* quantile gauges into the report
                    (off; needs report=)
  report=NAME       write bench_results/BENCH_<NAME>.json for
                    flare_report; NAME must be non-empty (off)
Flags:
  --help            this text
)");
}

/// Undo the exposition mangling for the daemon's stage quantile gauges:
/// flare_svc_oneapi_stage_<phase>_<q>_us -> svc.oneapi.stage.<phase>.<q>_us.
/// The '.'->'_' sanitization is lossy in general, so only the fixed
/// phase/quantile grid is mapped back.
void FoldStageGauges(const std::vector<PromSample>& samples,
                     MetricsRegistry* registry) {
  for (int p = 0; p < kNumRequestPhases; ++p) {
    for (const char* q : {"p50", "p95", "p99"}) {
      const std::string exposed = std::string("flare_svc_oneapi_stage_") +
                                  kRequestPhaseNames[p] + "_" + q + "_us";
      for (const PromSample& sample : samples) {
        if (sample.name != exposed) continue;
        registry
            ->GetGauge(std::string("svc.oneapi.stage.") +
                       kRequestPhaseNames[p] + "." + q + "_us")
            .Set(sample.value);
        break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage(stdout);
      return 0;
    }
  }
  const Config config = Config::FromArgs(argc, argv);
  if (!config.Has("port")) {
    PrintUsage(stderr);
    return 2;
  }

  LoadGenOptions options;
  options.host = config.GetString("host").value_or(std::string("127.0.0.1"));
  options.port = static_cast<std::uint16_t>(config.GetInt("port", 0));
  options.sessions =
      static_cast<std::uint64_t>(config.GetInt("sessions", 100));
  options.arrival_rate_per_s = config.GetDouble("arrival_rate", 10.0);
  options.mean_hold_s = config.GetDouble("mean_hold_s", 2.0);
  options.lognormal_sigma = config.GetDouble("sigma", 1.0);
  options.seed = static_cast<std::uint64_t>(config.GetInt("seed", 1));
  options.time_scale = config.GetDouble("time_scale", 1.0);
  options.max_wall_s = config.GetDouble("max_wall_s", 120.0);
  options.trace = config.GetBool("trace", false);
  options.trace_json =
      config.GetString("trace_json").value_or(std::string());

  // Validate report= up front: an empty name would silently produce
  // bench_results/BENCH_.json, which no watch ever reads.
  const auto report = config.GetString("report");
  if (report && report->empty()) {
    std::fprintf(stderr,
                 "flare_loadgen: report= needs a non-empty name "
                 "(writes bench_results/BENCH_<NAME>.json)\n");
    return 2;
  }
  const int scrape_port = config.GetInt("scrape_port", 0);
  if (scrape_port > 0 && !report) {
    std::fprintf(stderr, "flare_loadgen: scrape_port= needs report=\n");
    return 2;
  }

  LoadGenerator generator(options);
  const LoadGenResult result = generator.Run();

  std::printf(
      "flare_loadgen: %llu offered, %llu admitted, %llu blocked "
      "(rate %.3f), %llu abandoned, %llu departed, %llu assignments, "
      "%llu connect failures, %llu protocol errors, %.1f s wall "
      "(%.1f sessions/s)\n",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.admitted),
      static_cast<unsigned long long>(result.blocked), result.blocking_rate,
      static_cast<unsigned long long>(result.abandoned),
      static_cast<unsigned long long>(result.departed),
      static_cast<unsigned long long>(result.assignments),
      static_cast<unsigned long long>(result.connect_failures),
      static_cast<unsigned long long>(result.protocol_errors), result.wall_s,
      result.session_rate_per_s);
  std::printf(
      "assignment turnaround: p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
      result.turnaround_p50_us, result.turnaround_p95_us,
      result.turnaround_p99_us);
  if (options.trace || !options.trace_json.empty()) {
    std::printf("trace: %llu echoed assignments, %llu mismatches%s%s\n",
                static_cast<unsigned long long>(result.traced),
                static_cast<unsigned long long>(result.trace_mismatches),
                options.trace_json.empty() ? "" : ", spans in ",
                options.trace_json.c_str());
  }

  if (report) {
    MetricsRegistry registry;
    result.ExportTo(&registry);
    if (scrape_port > 0) {
      HttpResponse response;
      std::vector<PromSample> samples;
      std::string error;
      if (HttpGet(options.host, static_cast<std::uint16_t>(scrape_port),
                  "/metrics", &response) &&
          response.status == 200 &&
          ParsePrometheusText(response.body, &samples, &error)) {
        FoldStageGauges(samples, &registry);
      } else {
        std::fprintf(stderr,
                     "flare_loadgen: stage-gauge scrape of %s:%d failed%s%s\n",
                     options.host.c_str(), scrape_port,
                     error.empty() ? "" : ": ", error.c_str());
      }
    }
    BenchJsonWriter writer(*report);
    writer.Echo("sessions", static_cast<double>(options.sessions));
    writer.Echo("arrival_rate_per_s", options.arrival_rate_per_s);
    writer.Echo("mean_hold_s", options.mean_hold_s);
    writer.Echo("seed", static_cast<double>(options.seed));
    writer.Echo("time_scale", options.time_scale);
    const std::string path = BenchJsonPath(*report);
    if (!writer.Export(path, registry)) {
      std::fprintf(stderr, "flare_loadgen: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  if (!result.completed) {
    std::fprintf(stderr, "flare_loadgen: replay did not complete cleanly\n");
    return 1;
  }
  return 0;
}
