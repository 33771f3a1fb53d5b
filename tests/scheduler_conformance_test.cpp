// Scheduler conformance suite: one parameterized set of invariants that
// every MAC scheduler implementation must satisfy, run against PF, PSS,
// two-phase GBR and round-robin. Complements tests/stress_test.cpp's fuzz
// (which hammers one hard-coded scheduler list) by making the contract a
// first-class, per-implementation test: a new scheduler joins the suite
// by adding one factory line.
//
// Contract under test (lte/scheduler.h):
//  * total granted RBs never exceed the TTI's n_rbs;
//  * every flow appears in at most one grant (two-phase schedulers must
//    coalesce), with positive RB count;
//  * granted bytes respect max_bytes (modulo the final partially filled
//    RB) and the RB count is consistent with bytes_per_rb;
//  * phase stats account for exactly the granted RBs;
//  * bytes_per_rb values drawn from the 36.213 TBS table (the values a
//    real cell feeds in) behave the same as synthetic ones.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "lte/pss_scheduler.h"
#include "lte/tbs_table.h"
#include "util/rng.h"

namespace flare {
namespace {

/// One Allocate call into a fresh grants vector.
std::vector<SchedGrant> Grants(Scheduler& sched,
                               std::vector<SchedCandidate>& candidates,
                               int n_rbs, Rng& rng) {
  std::vector<SchedGrant> grants;
  sched.Allocate(candidates, n_rbs, rng, grants);
  return grants;
}

struct SchedulerCase {
  const char* name;
  std::unique_ptr<Scheduler> (*make)();
};

const SchedulerCase kCases[] = {
    {"PfScheduler",
     [] { return std::unique_ptr<Scheduler>(new PfScheduler()); }},
    {"PssScheduler",
     [] { return std::unique_ptr<Scheduler>(new PssScheduler()); }},
    {"TwoPhaseGbrScheduler",
     [] { return std::unique_ptr<Scheduler>(new TwoPhaseGbrScheduler()); }},
    {"RoundRobinScheduler",
     [] { return std::unique_ptr<Scheduler>(new RoundRobinScheduler()); }},
};

class SchedulerConformanceTest
    : public ::testing::TestWithParam<SchedulerCase> {
 protected:
  /// Check every contract clause for one Allocate call.
  static void CheckInvariants(Scheduler& sched,
                              std::vector<SchedCandidate> candidates,
                              int n_rbs, Rng& rng,
                              const std::string& context) {
    const auto grants = Grants(sched, candidates, n_rbs, rng);

    int total_rbs = 0;
    std::map<FlowId, int> appearances;
    for (const SchedGrant& g : grants) {
      ASSERT_NE(g.flow, nullptr) << context;
      EXPECT_GT(g.rbs, 0) << sched.Name() << " " << context;
      total_rbs += g.rbs;
      appearances[g.flow->id] += 1;

      // Find this flow's candidate for the byte-level clauses.
      const SchedCandidate* cand = nullptr;
      for (const SchedCandidate& c : candidates) {
        if (c.flow == g.flow) {
          cand = &c;
          break;
        }
      }
      ASSERT_NE(cand, nullptr) << context << ": grant for non-candidate";
      // Bytes fit in the granted RBs...
      EXPECT_LE(g.bytes,
                static_cast<std::uint64_t>(g.rbs) * cand->bytes_per_rb)
          << sched.Name() << " " << context;
      // ...and respect the per-TTI cap except the last partial RB.
      EXPECT_LT(g.bytes, cand->max_bytes + cand->bytes_per_rb)
          << sched.Name() << " " << context;
      // No more RBs than the bytes justify (ceiling division).
      EXPECT_LE(g.rbs, RbsForBytes(g.bytes, cand->bytes_per_rb))
          << sched.Name() << " " << context;
    }
    EXPECT_LE(total_rbs, n_rbs) << sched.Name() << " " << context;
    for (const auto& [flow, count] : appearances) {
      EXPECT_EQ(count, 1) << sched.Name() << " " << context << ": flow "
                          << flow << " granted " << count << " times";
    }
    // Phase accounting covers exactly what was granted.
    const SchedTtiStats& stats = sched.tti_stats();
    EXPECT_EQ(stats.rbs_priority + stats.rbs_shared, total_rbs)
        << sched.Name() << " " << context;
  }
};

/// Candidates with bytes_per_rb straight from the 36.213 TBS table across
/// the I_TBS range, mixed GBR/non-GBR, on the standard 50-RB testbed cell.
TEST_P(SchedulerConformanceTest, TbsTableDrivenTti) {
  const SchedulerCase& param = GetParam();
  auto sched = param.make();
  Rng rng(11);

  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<FlowState> states(static_cast<std::size_t>(n));
    std::vector<SchedCandidate> candidates;
    for (int i = 0; i < n; ++i) {
      FlowState& s = states[static_cast<std::size_t>(i)];
      s.id = static_cast<FlowId>(i + 1);
      s.type = i % 2 == 0 ? FlowType::kVideo : FlowType::kData;
      s.gbr_bps = i % 2 == 0 ? rng.Uniform(2e5, 2e6) : 0.0;
      s.gbr_credit_bytes = rng.Uniform(0.0, 20'000.0);
      s.pf_avg_bps = rng.Uniform(1.0, 1e7);

      const int itbs =
          static_cast<int>(rng.UniformInt(kMinItbs, kMaxItbs));
      SchedCandidate c;
      c.flow = &s;
      c.bytes_per_rb =
          static_cast<std::uint32_t>(TbsBitsPerPrb(itbs) / 8);
      c.max_bytes = static_cast<std::uint64_t>(rng.UniformInt(1, 60'000));
      candidates.push_back(c);
    }
    CheckInvariants(*sched, candidates, /*n_rbs=*/50, rng,
                    "trial " + std::to_string(trial));
  }
}

/// Degenerate inputs every implementation must tolerate: no candidates,
/// zero RBs, zero-capacity candidates, single-flow saturation.
TEST_P(SchedulerConformanceTest, DegenerateInputs) {
  const SchedulerCase& param = GetParam();
  auto sched = param.make();
  Rng rng(5);

  std::vector<SchedCandidate> empty;
  EXPECT_TRUE(Grants(*sched, empty, 50, rng).empty());

  FlowState s;
  s.id = 1;
  s.type = FlowType::kVideo;
  s.pf_avg_bps = 1.0;

  SchedCandidate c;
  c.flow = &s;
  c.bytes_per_rb = static_cast<std::uint32_t>(TbsBitsPerPrb(6) / 8);
  c.max_bytes = 10'000;

  std::vector<SchedCandidate> one{c};
  EXPECT_TRUE(Grants(*sched, one, /*n_rbs=*/0, rng).empty());

  // A flow with nothing to send must not receive RBs.
  one[0].max_bytes = 0;
  CheckInvariants(*sched, one, 50, rng, "zero max_bytes");

  // Saturation: far more demand than the TTI carries.
  one[0].max_bytes = 10'000'000;
  CheckInvariants(*sched, one, 50, rng, "saturated single flow");
}

/// GBR flows with outstanding credit must be served before the shared
/// phase exhausts the TTI on the two-phase scheduler; on single-phase
/// schedulers this degenerates to the plain invariants.
TEST_P(SchedulerConformanceTest, GbrBackloggedFlowIsServed) {
  const SchedulerCase& param = GetParam();
  auto sched = param.make();
  Rng rng(23);

  FlowState gbr;
  gbr.id = 1;
  gbr.type = FlowType::kVideo;
  gbr.gbr_bps = 1e6;
  gbr.gbr_credit_bytes = 5'000.0;
  gbr.pf_avg_bps = 1e6;

  FlowState best_effort;
  best_effort.id = 2;
  best_effort.type = FlowType::kData;
  best_effort.pf_avg_bps = 1.0;  // PF favourite

  const auto bytes_per_rb =
      static_cast<std::uint32_t>(TbsBitsPerPrb(10) / 8);
  std::vector<SchedCandidate> candidates;
  for (FlowState* f : {&gbr, &best_effort}) {
    SchedCandidate c;
    c.flow = f;
    c.bytes_per_rb = bytes_per_rb;
    c.max_bytes = 100'000;
    candidates.push_back(c);
  }

  auto copy = candidates;
  const auto grants = Grants(*sched, copy, 50, rng);
  if (param.make()->Name() == "two-phase-gbr") {
    bool gbr_served = false;
    for (const SchedGrant& g : grants) {
      if (g.flow->id == 1 && g.bytes > 0) gbr_served = true;
    }
    EXPECT_TRUE(gbr_served) << "backlogged GBR flow starved";
  }
  CheckInvariants(*sched, candidates, 50, rng, "gbr vs best-effort");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerConformanceTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<SchedulerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace flare
