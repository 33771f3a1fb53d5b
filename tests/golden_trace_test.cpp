// Golden-trace regression harness: short, fully deterministic reference
// scenarios whose BAI trace CSVs are checked in under tests/golden/. A
// fresh run must reproduce the stored bytes exactly; any drift in the
// scheduler, solver, transport or trace formatting fails with a diff-able
// artifact instead of a silent behaviour change.
//
// When a change *intentionally* alters the traces, regenerate with
//   FLARE_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated CSVs after reviewing the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "obs/bai_trace.h"
#include "scenario/scenario.h"

#ifndef FLARE_GOLDEN_DIR
#error "FLARE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace flare {
namespace {

bool RegenRequested() {
  const char* env = std::getenv("FLARE_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string GoldenPath(const std::string& name) {
  return std::string(FLARE_GOLDEN_DIR) + "/" + name;
}

/// Run `config` with a trace sink attached and return the trace CSV.
/// `result`, when given, receives the run's ScenarioResult.
std::string TraceCsv(ScenarioConfig config,
                     ScenarioResult* result = nullptr) {
  BaiTraceSink trace;
  config.bai_trace = &trace;
  // Golden bytes must not depend on solver wall clock.
  config.oneapi.deterministic_timing = true;
  ScenarioResult run = RunScenario(config);
  if (result != nullptr) *result = std::move(run);
  std::ostringstream out;
  trace.WriteCsv(out);
  return out.str();
}

void CheckAgainstGolden(const std::string& name, const std::string& fresh) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " missing — run with FLARE_REGEN_GOLDEN=1 to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  // One EXPECT_EQ over the whole file: gtest prints the first differing
  // line, which names the BAI where behaviour drifted.
  EXPECT_EQ(stored.str(), fresh)
      << "trace drift vs " << path
      << " (regenerate with FLARE_REGEN_GOLDEN=1 if intentional)";
}

// Figure 6 shape: the static testbed scenario, FLARE scheme — 3 FLARE
// players + 1 greedy data flow on the two-phase GBR scheduler, shortened
// to 30 s (enough BAIs to cover ramp-up, hysteresis adoption and steady
// state).
TEST(GoldenTrace, TestbedStaticFlare) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.seed = 1;
  CheckAgainstGolden("fig6_testbed_flare.csv", TraceCsv(config));
}

// Figure 10 shape: coexistence — FLARE players sharing the cell with
// conventional (FESTIVE) players serviced as plain data traffic.
TEST(GoldenTrace, TestbedCoexistenceConventional) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.seed = 1;
  config.n_conventional = 2;
  CheckAgainstGolden("fig10_coexistence.csv", TraceCsv(config));
}

// The relaxed-solver variant exercises the continuous-relaxation path
// (Figure 8's subject) through the same golden mechanism. A richer cell
// than the default testbed knob: at iTbs 6 the cell pins every flow at
// the floor rung and the two solvers coincide; at iTbs 15 the rungs climb
// and the relaxation's round-down behaviour is actually on the record.
TEST(GoldenTrace, TestbedStaticFlareRelaxed) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlareRelaxed);
  config.duration_s = 30.0;
  config.seed = 1;
  config.static_itbs = 15;
  CheckAgainstGolden("fig8_testbed_flare_relaxed.csv", TraceCsv(config));
}

// Session churn on the testbed cell: arrivals and departures on top of
// the static population, with utility-drop admission at a floor that
// rejects some arrivals. Pins the churn wiring end to end: the FLARE
// cell's solver under churn and the admission controller's pinned-floor
// solve.
TEST(GoldenTrace, TestbedFlareChurn) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.seed = 1;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 1.0;
  config.churn.mean_hold_s = 30.0;
  config.churn.admission.policy = AdmissionPolicy::kUtilityDrop;
  config.churn.admission.objective_floor = -1.0;
  ScenarioResult result;
  const std::string csv = TraceCsv(config, &result);
  EXPECT_GT(result.sessions_blocked, 0u);
  EXPECT_LT(result.sessions_blocked, result.sessions_arrived);
  CheckAgainstGolden("testbed_flare_churn.csv", csv);
}

// The ns-3-style cell of Figure 6: eight FLARE players placed at random
// on the Friis + shadowing + fast-fading channel, PSS scheduler, 25 RBs.
// The testbed goldens above all run on fixed-I_TBS channels; this one
// pins the faded channel path (pathloss, fading trace, AMC) byte for
// byte.
TEST(GoldenTrace, SimStaticFlare) {
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  config.duration_s = 120.0;
  config.seed = 1;
  CheckAgainstGolden("sim_static_flare.csv", TraceCsv(config));
}

// Figure 7's mobile cell with one greedy data flow added, so the
// random-waypoint mobility model, the PF phase of PSS and TCP all run.
TEST(GoldenTrace, SimMobileFlare) {
  ScenarioConfig config = SimMobilePreset(Scheme::kFlare);
  config.duration_s = 120.0;
  config.seed = 1;
  config.n_data = 1;
  CheckAgainstGolden("sim_mobile_flare.csv", TraceCsv(config));
}

}  // namespace
}  // namespace flare
