// flare_oneapid — the standalone networked OneAPI control plane.
//
// Serves the client-info / bitrate-assignment / statistics-report
// protocol (svc/frame.h framing over the net/messages codec) on a real
// TCP port: the same Algorithm 1 BAI loop and admission control the
// simulator runs in-process, packaged as the operator-side daemon the
// paper deploys (Figure 1). With telemetry_port= set, the PR 8 live
// plane (/metrics, /healthz, /events, flare_top) observes the daemon
// exactly as it observes a simulation run.
//
// Drive it with tools/flare_loadgen (deterministic churned sessions,
// SLO measurement) or any client speaking the frame protocol.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "churn/admission.h"
#include "obs/telemetry_server.h"
#include "svc/oneapi_service.h"
#include "util/config.h"

namespace {

using namespace flare;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void PrintUsage(std::FILE* out) {
  std::fprintf(out, R"(usage: flare_oneapid [key=value ...]

Standalone OneAPI control-plane server (frame protocol over TCP).

Keys:
  port=N               listen port (default 9470; 0 = ephemeral)
  bind=ADDR            bind address (127.0.0.1)
  bai_ms=N             bitrate assignment interval, ms (1000)
  num_rbs=N            cell RB budget per TTI (50)
  n_data=N             data flows sharing the cell (0)
  gbr_headroom=F       GBR = F * assigned rate (1.1)
  smoothing=F          e_u EWMA weight (0.1)
  bits_per_rb=F        connect-time efficiency estimate (100)
  admission=POLICY     admit-all | capacity-threshold | utility-drop
  capacity_threshold=F kCapacityThreshold RB-fraction cap (0.9)
  max_sessions=N       hard session cap, 0 = unlimited (0)
  telemetry_port=N     attach the live telemetry plane (off)
  trace_json=PATH      per-request phase spans as Perfetto JSON, written
                       at shutdown; merge with the loadgen's trace via
                       tools/flare_trace (off; off = byte-identical wire)
  flight_json=PATH     dump the request tracer's flight window (slow-request
                       exemplars) here at shutdown (off; needs trace_json=)
  duration_s=F         exit after F seconds, 0 = run until signal (0)
Flags:
  --help               this text
)");
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

  OneApiServiceOptions options;
  options.bind_address =
      config.GetString("bind").value_or(std::string("127.0.0.1"));
  options.port = static_cast<std::uint16_t>(config.GetInt("port", 9470));
  options.bai_ms = config.GetInt("bai_ms", 1000);
  options.num_rbs = config.GetInt("num_rbs", 50);
  options.n_data_flows = config.GetInt("n_data", 0);
  options.gbr_headroom = config.GetDouble("gbr_headroom", 1.1);
  options.efficiency_smoothing = config.GetDouble("smoothing", 0.1);
  options.default_bits_per_rb = config.GetDouble("bits_per_rb", 100.0);
  options.max_sessions =
      static_cast<std::size_t>(config.GetInt("max_sessions", 0));
  if (const auto policy = config.GetString("admission")) {
    const auto parsed = ParseAdmissionPolicy(*policy);
    if (!parsed) {
      std::fprintf(stderr, "flare_oneapid: unknown admission policy %s\n",
                   policy->c_str());
      return 2;
    }
    options.admission.policy = *parsed;
  }
  options.admission.capacity_threshold =
      config.GetDouble("capacity_threshold", 0.9);

  // Request tracing: the tracer keeps the worst-K slow-request exemplars
  // per window in its flight window; with trace_json unset the service
  // never constructs a tracer and the wire stays byte-identical.
  const std::string trace_json =
      config.GetString("trace_json").value_or(std::string());
  const std::string flight_json =
      config.GetString("flight_json").value_or(std::string());
  if (!trace_json.empty()) {
    options.trace_json = trace_json;
  } else if (!flight_json.empty()) {
    std::fprintf(stderr, "flare_oneapid: flight_json= needs trace_json=\n");
    return 2;
  }

  TelemetryServer::Options telemetry_options;
  telemetry_options.bind_address = options.bind_address;
  telemetry_options.port =
      static_cast<std::uint16_t>(config.GetInt("telemetry_port", 0));
  TelemetryServer telemetry(telemetry_options);
  if (config.GetInt("telemetry_port", 0) > 0) {
    if (!telemetry.Start()) {
      std::fprintf(stderr, "flare_oneapid: cannot bind telemetry port %d\n",
                   config.GetInt("telemetry_port", 0));
      return 2;
    }
    options.telemetry = &telemetry;
  }

  OneApiService service(std::move(options));
  if (!service.Start()) {
    std::fprintf(stderr, "flare_oneapid: cannot bind %s:%d\n",
                 config.GetString("bind").value_or("127.0.0.1").c_str(),
                 config.GetInt("port", 9470));
    return 2;
  }
  std::printf("flare_oneapid listening on port %u (bai_ms=%d)\n",
              service.port(), config.GetInt("bai_ms", 1000));
  if (telemetry.running()) {
    std::printf("telemetry on port %u (/metrics /healthz; flare_top port=%u)\n",
                telemetry.port(), telemetry.port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const double duration_s = config.GetDouble("duration_s", 0.0);
  const auto start = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
                .count() >= duration_s) {
      break;
    }
  }

  service.Stop();
  telemetry.Stop();
  if (!trace_json.empty()) {
    std::printf("trace: %s (%llu finalized requests)\n", trace_json.c_str(),
                static_cast<unsigned long long>(service.traced_requests()));
    if (!flight_json.empty() && !service.DumpFlight(flight_json)) {
      std::fprintf(stderr, "flare_oneapid: cannot write %s\n",
                   flight_json.c_str());
    }
  }
  std::printf(
      "flare_oneapid done: %llu connections, "
      "%llu bais, %llu assignments (%llu dropped), %llu admission rejects, "
      "%llu overload rejects\n",
      static_cast<unsigned long long>(service.connections_accepted()),
      static_cast<unsigned long long>(service.bais()),
      static_cast<unsigned long long>(service.assignments_sent()),
      static_cast<unsigned long long>(service.assignments_dropped()),
      static_cast<unsigned long long>(service.admission_rejects()),
      static_cast<unsigned long long>(service.overload_rejects()));
  return 0;
}
