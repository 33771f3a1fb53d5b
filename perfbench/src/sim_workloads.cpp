// paper_static and multicell_churn: the simulator measured from outside.
//
// Timed runs attach no observer. Traced runs attach a SpanTracer and a
// MetricsRegistry through the public ScenarioConfig/MultiCellConfig
// hooks, and every traced or reference run must reproduce the timed
// runs' QoE bit for bit.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "report.h"
#include "scenario/multi_cell.h"
#include "scenario/scenario.h"
#include "util/time.h"
#include "workloads.h"

namespace perfbench {
namespace {

using flare::ClientMetrics;
using flare::MetricsRegistry;
using flare::MultiCellConfig;
using flare::MultiCellResult;
using flare::ScenarioConfig;
using flare::ScenarioResult;
using flare::SpanTracer;

/// Placements averaged per paper_static run: single placements differ by
/// up to 60% in video bitrate and 50% in simulation speed; the mean of
/// eight keeps the seed-to-seed spread near 5%.
constexpr int kPaperInputs = 8;
constexpr int kChurnCells = 16;
constexpr int kChurnWorkers = 2;
constexpr double kChurnDurationS = 60.0;
/// Untraced/traced run pairs of a multicell_churn traced run.
constexpr int kOverheadPairs = 3;
/// Set-up repetitions before each timed run; setup_s is the median over
/// the whole measuring time, since one set-up takes only milliseconds and
/// the host's speed drifts from second to second.
constexpr int kSetupRepsPerRun = 8;
constexpr int kChurnSetupRepsPerRun = 20;

/// TTIs one cell runs: the TTI loop fires at t = 0 and at the horizon.
std::uint64_t ExpectedTtis(double duration_s) {
  return static_cast<std::uint64_t>(std::llround(duration_s * 1e3)) + 1;
}

ScenarioConfig PaperConfig(std::uint64_t seed) {
  ScenarioConfig config = flare::SimStaticPreset(flare::Scheme::kFlare);
  config.seed = seed;
  return config;
}

MultiCellConfig ChurnConfig(std::uint64_t seed, int workers) {
  MultiCellConfig config;
  config.cell = flare::TestbedPreset(flare::Scheme::kFlare);
  config.cell.seed = seed;
  config.cell.duration_s = kChurnDurationS;
  config.cell.churn.enabled = true;
  config.cell.churn.arrival_process = flare::ChurnProcess::kPoisson;
  config.cell.churn.arrival_rate_per_s = 0.5;
  config.cell.churn.hold_process = flare::ChurnProcess::kLognormal;
  config.cell.churn.mean_hold_s = 20.0;
  config.cell.churn.admission.policy =
      flare::AdmissionPolicy::kCapacityThreshold;
  config.n_cells = kChurnCells;
  config.workers = workers;
  return config;
}

/// Every deterministic output of a run, flattened for exact comparison.
/// Solver wall-clock times are left out: they are measurements.
std::vector<double> Fingerprint(const ScenarioResult& r) {
  std::vector<double> f;
  const auto add = [&f](const std::vector<ClientMetrics>& clients) {
    f.push_back(static_cast<double>(clients.size()));
    for (const ClientMetrics& c : clients) {
      f.insert(f.end(), {c.avg_bitrate_bps, double(c.bitrate_changes),
                         c.rebuffer_time_s, double(c.rebuffer_events),
                         double(c.segments), c.avg_throughput_bps, c.qoe});
    }
  };
  add(r.video);
  add(r.conventional);
  add(r.churned);
  f.insert(f.end(), r.data_throughput_bps.begin(),
           r.data_throughput_bps.end());
  f.insert(f.end(), r.video_fractions.begin(), r.video_fractions.end());
  f.insert(f.end(),
           {r.jain_avg_bitrate, r.avg_video_bitrate_bps,
            r.avg_bitrate_changes, r.avg_rebuffer_s,
            r.avg_data_throughput_bps, double(r.sessions_arrived),
            double(r.sessions_departed), double(r.sessions_blocked),
            r.blocking_probability, r.avg_admitted_qoe});
  return f;
}

std::vector<double> Fingerprint(const MultiCellResult& r) {
  std::vector<double> f;
  for (const ScenarioResult& cell : r.cells) {
    const std::vector<double> one = Fingerprint(cell);
    f.insert(f.end(), one.begin(), one.end());
  }
  f.insert(f.end(), {double(r.global_video_flows),
                     double(r.global_data_flows), double(r.barrier_epochs),
                     double(r.mailbox_messages)});
  return f;
}

/// Output checks that hold for any seed.
void CheckScenario(RunResult& result, const ScenarioResult& r,
                   const ScenarioConfig& config, const std::string& what) {
  const double lo = config.ladder_kbps.front() * 1e3;
  const double hi = config.ladder_kbps.back() * 1e3;
  result.Check(static_cast<int>(r.video.size()) == config.n_video,
               what + ": video client count");
  for (const ClientMetrics& c : r.video) {
    result.Check(c.segments > 0, what + ": a client fetched no segment");
    result.Check(c.avg_bitrate_bps >= lo && c.avg_bitrate_bps <= hi,
                 what + ": average bitrate outside the ladder");
    result.Check(c.rebuffer_time_s >= 0.0, what + ": negative rebuffering");
  }
  result.Check(r.jain_avg_bitrate > 0.0 && r.jain_avg_bitrate <= 1.0 + 1e-12,
               what + ": Jain index outside (0, 1]");
  result.Check(r.sessions_blocked <= r.sessions_arrived,
               what + ": more sessions blocked than arrived");
  if (config.churn.enabled) {
    // Ledger: sessions still connecting at the horizon are neither
    // blocked nor reported, so reported + blocked can fall short of
    // arrived but never exceed it.
    result.Check(r.churned.size() + r.sessions_blocked <= r.sessions_arrived &&
                     r.sessions_departed + r.sessions_blocked <=
                         r.sessions_arrived,
                 what + ": churn ledger does not balance");
  }
}

/// Per-layer sums over traced runs.
struct LayerSums {
  double wall_us = 0.0;  // host time of the simulated work
  double tti_us = 0.0;
  double bai_us = 0.0;
  double drain_us = 0.0;
  std::uint64_t ttis = 0;
  std::uint64_t rbs_used = 0;
  std::uint64_t events = 0;
  std::uint64_t assignments = 0;
  std::uint64_t bais = 0;
  std::uint64_t epochs = 0;
  std::uint64_t messages = 0;
  std::uint64_t segments = 0;
  std::uint64_t stalls = 0;
  std::uint64_t switches = 0;
  std::uint64_t arrived = 0;
  std::uint64_t blocked = 0;
  std::uint64_t departed = 0;
  std::vector<double> solve_us;
  std::vector<double> epoch_us;
  std::vector<double> wait_us;

  /// Spans of one traced run. `advance` spans replace the run's wall
  /// time as the host-time base when the runner records them.
  void AbsorbSpans(const SpanTracer& tracer) {
    double advance_us = 0.0;
    for (const flare::TraceEvent& e : tracer.events()) {
      if (e.ph != 'X') continue;
      const auto is = [&e](const char* cat, const char* name) {
        return std::strcmp(e.cat, cat) == 0 && std::strcmp(e.name, name) == 0;
      };
      if (is("cell", "tti.window")) tti_us += e.dur_us;
      if (is("oneapi", "bai")) bai_us += e.dur_us;
      if (is("solver", "solve")) solve_us.push_back(e.dur_us);
      if (is("runner", "advance")) advance_us += e.dur_us;
      if (is("runner", "epoch")) epoch_us.push_back(e.dur_us);
      if (is("runner", "barrier.wait")) wait_us.push_back(e.dur_us);
      if (is("runner", "barrier.drain")) drain_us += e.dur_us;
    }
    wall_us += advance_us;
  }

  /// Counters of one traced run, summed over cell prefixes.
  void AbsorbCounters(const MetricsRegistry& registry) {
    for (const auto& [name, counter] : registry.counters()) {
      const auto is = [&name](const std::string& base) {
        return name == base ||
               (name.size() > base.size() &&
                name.compare(name.size() - base.size() - 1, std::string::npos,
                             "." + base) == 0);
      };
      if (is("cell.ttis")) ttis += counter.value();
      if (is("cell.rbs_used")) rbs_used += counter.value();
      if (is("sim.events")) events += counter.value();
      if (is("oneapi.assignments")) assignments += counter.value();
      if (is("oneapi.bais")) bais += counter.value();
    }
  }

  void AbsorbResult(const ScenarioResult& r) {
    const auto add = [this](const std::vector<ClientMetrics>& clients) {
      for (const ClientMetrics& c : clients) {
        segments += static_cast<std::uint64_t>(c.segments);
        stalls += static_cast<std::uint64_t>(c.rebuffer_events);
        switches += static_cast<std::uint64_t>(c.bitrate_changes);
      }
    };
    add(r.video);
    add(r.conventional);
    add(r.churned);
    arrived += r.sessions_arrived;
    blocked += r.sessions_blocked;
    departed += r.sessions_departed;
  }

  void Emit(LayerValues& out) const {
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    out["lte.tti_ms"] = tti_us / 1e3;
    out["lte.ns_per_tti"] = per(tti_us * 1e3, double(ttis));
    out["lte.ttis"] = double(ttis);
    out["lte.rbs_used"] = double(rbs_used);
    out["sim.events"] = double(events);
    out["sim.ns_per_event"] =
        per((wall_us - tti_us - bai_us) * 1e3, double(events));
    out["has.segments"] = double(segments);
    out["has.stalls"] = double(stalls);
    out["has.switches"] = double(switches);
    if (!epoch_us.empty()) {
      out["sim.runner.epoch_ms.p50"] = Quantile(epoch_us, 0.5) / 1e3;
      out["sim.runner.epoch_ms.p90"] = Quantile(epoch_us, 0.9) / 1e3;
    }
    double wait_sum = 0.0;
    for (double w : wait_us) wait_sum += w;
    out["sim.runner.barrier_wait_ms"] = wait_sum / 1e3;
    if (!wait_us.empty()) {
      out["sim.runner.barrier_wait_ms.p90"] = Quantile(wait_us, 0.9) / 1e3;
    }
    out["sim.runner.drain_ms"] = drain_us / 1e3;
    out["sim.runner.epochs"] = double(epochs);
    out["sim.runner.messages"] = double(messages);
    out["net.bai_ms"] = bai_us / 1e3;
    out["net.assignments"] = double(assignments);
    double solve_sum = 0.0;
    for (double s : solve_us) solve_sum += s;
    out["core.solve_ms"] = solve_sum / 1e3;
    if (!solve_us.empty()) {
      out["core.solve_us.p50"] = Quantile(solve_us, 0.5);
      out["core.solve_us.p99"] = Quantile(solve_us, 0.99);
    }
    out["core.bais"] = double(bais);
    out["churn.arrived"] = double(arrived);
    out["churn.blocked"] = double(blocked);
    out["churn.departed"] = double(departed);
  }
};

/// Deterministic QoE summary over a set of runs' cells.
struct QoeSummary {
  std::vector<double> video_kbps;
  std::vector<double> jain;
  std::vector<double> rebuffer_s;
  std::vector<double> switches;
  std::vector<double> data_kbps;
  std::uint64_t arrived = 0;
  std::uint64_t blocked = 0;

  void Add(const ScenarioResult& r) {
    video_kbps.push_back(r.avg_video_bitrate_bps / 1e3);
    jain.push_back(r.jain_avg_bitrate);
    rebuffer_s.push_back(r.avg_rebuffer_s);
    switches.push_back(r.avg_bitrate_changes);
    if (!r.data_throughput_bps.empty()) {
      data_kbps.push_back(r.avg_data_throughput_bps / 1e3);
    }
    arrived += r.sessions_arrived;
    blocked += r.sessions_blocked;
  }

  void EmitOutcomes(LayerValues& out) const {
    out["rebuffer_s"] = Mean(rebuffer_s);
    out["switches"] = Mean(switches);
    out["data_kbps"] = data_kbps.empty() ? 0.0 : Mean(data_kbps);
    out["blocking_prob"] =
        arrived > 0 ? double(blocked) / double(arrived) : 0.0;
  }
};

void EmitOverhead(LayerValues& out, double traced_s, double untraced_s) {
  out["obs.trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0;
}

}  // namespace

RunResult RunPaperStatic(const Options& options) {
  RunResult result;
  std::vector<ScenarioConfig> inputs;
  for (int i = 0; i < kPaperInputs; ++i) {
    inputs.push_back(PaperConfig(SubSeed(options.seed, i)));
  }
  const auto run = [&result](const ScenarioConfig& config, double* wall_s) {
    const double t0 = NowS();
    ScenarioResult r = flare::RunScenario(config);
    if (wall_s != nullptr) *wall_s = NowS() - t0;
    ++result.attempted;
    return r;
  };
  const auto same = [&result](const ScenarioResult& a, const ScenarioResult& b,
                              const std::string& what) {
    if (Fingerprint(a) != Fingerprint(b)) {
      ++result.failed;
      result.Fail(what);
    }
  };

  if (options.trace) {
    // Each input untraced (timing base) then traced (layers + counts).
    LayerSums layers;
    QoeSummary qoe;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    for (const ScenarioConfig& config : inputs) {
      double wall = 0.0;
      const ScenarioResult plain = run(config, &wall);
      untraced_s += wall;
      SpanTracer tracer;
      MetricsRegistry registry;
      ScenarioConfig traced_config = config;
      traced_config.span_trace = &tracer;
      traced_config.metrics = &registry;
      const ScenarioResult traced = run(traced_config, &wall);
      traced_s += wall;
      CheckScenario(result, traced, config, "paper_static traced run");
      same(plain, traced, "paper_static: traced run changed the QoE");
      result.Check(registry.GetCounter("cell.ttis").value() ==
                       ExpectedTtis(config.duration_s),
                   "paper_static: one TTI per simulated millisecond");
      layers.wall_us += wall * 1e6;
      layers.AbsorbSpans(tracer);
      layers.AbsorbCounters(registry);
      layers.AbsorbResult(traced);
      qoe.Add(traced);
    }
    LayerValues values;
    layers.Emit(values);
    qoe.EmitOutcomes(values);
    EmitOverhead(values, traced_s, untraced_s);
    EmitPerLayer(result, values);
    return result;
  }

  // Reference: the first input with a metrics registry attached. The
  // observer must not change its QoE, and the TTI count is exact.
  MetricsRegistry registry;
  ScenarioConfig reference_config = inputs[0];
  reference_config.metrics = &registry;
  const ScenarioResult reference = run(reference_config, nullptr);
  result.Check(registry.GetCounter("cell.ttis").value() ==
                   ExpectedTtis(inputs[0].duration_s),
               "paper_static: one TTI per simulated millisecond");
  result.Check(registry.GetCounter("sim.events").value() > 0,
               "paper_static: no simulator events counted");

  // Timed: round-robin over the inputs, at least one pass, until the
  // next run would overrun the measuring time. Set-up is timed before
  // each run, as zero-duration runs of the same input.
  std::vector<double> setup_s;
  std::vector<ScenarioResult> first(inputs.size());
  QoeSummary qoe;
  double wall_s = 0.0;
  double cell_bais = 0.0;
  const double start = NowS();
  for (std::size_t n = 0;; ++n) {
    const std::size_t i = n % inputs.size();
    if (n >= inputs.size()) {
      const double mean_run_s = (NowS() - start) / double(n);
      if (NowS() - start + mean_run_s > options.seconds) break;
    }
    ScenarioConfig empty = inputs[i];
    empty.duration_s = 0.0;
    for (int rep = 0; rep < kSetupRepsPerRun; ++rep) {
      const double t0 = NowS();
      flare::RunScenario(empty);
      setup_s.push_back(NowS() - t0);
    }
    double wall = 0.0;
    ScenarioResult r = run(inputs[i], &wall);
    cell_bais += inputs[i].duration_s / flare::ToSeconds(inputs[i].oneapi.bai);
    wall_s += wall;
    if (n < inputs.size()) {
      CheckScenario(result, r, inputs[i], "paper_static");
      qoe.Add(r);
      first[i] = std::move(r);
    } else {
      same(first[i], r, "paper_static: repeated run changed the QoE");
    }
  }
  same(reference, first[0], "paper_static: observed reference differs");

  EmitEndToEnd(result, wall_s * 1e3 / cell_bais, Median(setup_s),
               Mean(qoe.video_kbps), Mean(qoe.jain));
  return result;
}

RunResult RunMulticellChurn(const Options& options) {
  RunResult result;
  const auto run = [&result](const MultiCellConfig& config) {
    MultiCellResult r = flare::RunMultiCellScenario(config);
    ++result.attempted;
    for (const ScenarioResult& cell : r.cells) {
      CheckScenario(result, cell, config.cell, "multicell_churn cell");
    }
    result.Check(static_cast<int>(r.cells.size()) == config.n_cells,
                 "multicell_churn: cell count");
    return r;
  };
  const auto same = [&result](const MultiCellResult& a,
                              const MultiCellResult& b,
                              const std::string& what) {
    if (Fingerprint(a) != Fingerprint(b)) {
      ++result.failed;
      result.Fail(what);
    }
  };
  const MultiCellConfig timed_config = ChurnConfig(options.seed, kChurnWorkers);
  const double cell_bais =
      kChurnCells * kChurnDurationS / flare::ToSeconds(timed_config.cell.oneapi.bai);

  // Reference: the serial runner (workers=0) with a metrics registry; the
  // parallel runs must match it bit for bit.
  MetricsRegistry registry;
  MultiCellConfig reference_config = ChurnConfig(options.seed, 0);
  reference_config.metrics = &registry;
  const MultiCellResult reference = run(reference_config);
  LayerSums counts;
  counts.AbsorbCounters(registry);
  result.Check(counts.ttis == kChurnCells * ExpectedTtis(kChurnDurationS),
               "multicell_churn: one TTI per simulated cell-millisecond");
  result.Check(reference.barrier_epochs > 0 && reference.mailbox_messages > 0,
               "multicell_churn: runner did no barrier work");

  if (options.trace) {
    // Untraced and traced runs alternate; a single pair differs by up to
    // 20% from noise alone, so the overhead compares medians of pairs.
    LayerSums layers;
    QoeSummary qoe;
    std::vector<double> plain_ms;
    std::vector<double> traced_ms;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      const MultiCellResult plain = run(timed_config);
      same(reference, plain, "multicell_churn: parallel run differs from serial");
      plain_ms.push_back(plain.wall_ms);
      SpanTracer tracer;
      MetricsRegistry traced_registry;
      MultiCellConfig traced_config = timed_config;
      traced_config.span_trace = &tracer;
      traced_config.metrics = &traced_registry;
      const MultiCellResult traced = run(traced_config);
      same(reference, traced, "multicell_churn: traced run differs from serial");
      traced_ms.push_back(traced.wall_ms);
      if (pair + 1 < kOverheadPairs) continue;
      layers.AbsorbSpans(tracer);
      layers.AbsorbCounters(traced_registry);
      for (const ScenarioResult& cell : traced.cells) {
        layers.AbsorbResult(cell);
        qoe.Add(cell);
      }
      layers.epochs = traced.barrier_epochs;
      layers.messages = traced.mailbox_messages;
    }
    LayerValues values;
    layers.Emit(values);
    qoe.EmitOutcomes(values);
    // Serial (the registry-attached reference) over 2-worker wall time.
    values["sim.runner.speedup"] = reference.wall_ms / Median(plain_ms);
    EmitOverhead(values, Median(traced_ms), Median(plain_ms));
    EmitPerLayer(result, values);
    return result;
  }

  // Set-up, timed before each run: call time minus the run loop's wall
  // time, for zero-duration runs of the timed config.
  MultiCellConfig empty = timed_config;
  empty.cell.duration_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> cell_bai_ms;
  const double start = NowS();
  for (int n = 0;; ++n) {
    if (n > 0) {
      const double mean_run_s = (NowS() - start) / double(n);
      if (NowS() - start + mean_run_s > options.seconds) break;
    }
    for (int rep = 0; rep < kChurnSetupRepsPerRun; ++rep) {
      const double t0 = NowS();
      const MultiCellResult r = flare::RunMultiCellScenario(empty);
      setup_s.push_back(NowS() - t0 - r.wall_ms / 1e3);
    }
    const MultiCellResult r = run(timed_config);
    same(reference, r, "multicell_churn: parallel run differs from serial");
    cell_bai_ms.push_back(r.wall_ms / cell_bais);
  }

  QoeSummary qoe;
  for (const ScenarioResult& cell : reference.cells) qoe.Add(cell);
  EmitEndToEnd(result, Median(cell_bai_ms), Median(setup_s),
               Mean(qoe.video_kbps), Mean(qoe.jain));
  return result;
}

}  // namespace perfbench
