// Tests for the MAC schedulers: RB conservation, GBR priority, PF fairness
// and the FLARE two-phase video-first behaviour.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "lte/pss_scheduler.h"
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
std::vector<SchedGrant> Grants(Scheduler&& sched,
                               std::vector<SchedCandidate>& candidates,
                               int n_rbs, Rng& rng) {
  return Grants(sched, candidates, n_rbs, rng);
}

struct TestFlows {
  std::vector<FlowState> states;
  std::vector<SchedCandidate> candidates;
};

/// Build `n` candidates with uniform bytes_per_rb and big queues.
TestFlows MakeFlows(int n, std::uint32_t bytes_per_rb = 100,
                    std::uint64_t max_bytes = 1'000'000) {
  TestFlows f;
  f.states.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowState& s = f.states[static_cast<std::size_t>(i)];
    s.id = static_cast<FlowId>(i + 1);
    s.type = FlowType::kData;
    s.queued_bytes = max_bytes;
  }
  for (int i = 0; i < n; ++i) {
    SchedCandidate c;
    c.flow = &f.states[static_cast<std::size_t>(i)];
    c.bytes_per_rb = bytes_per_rb;
    c.max_bytes = max_bytes;
    f.candidates.push_back(c);
  }
  return f;
}

std::map<FlowId, std::uint64_t> BytesByFlow(
    const std::vector<SchedGrant>& grants) {
  std::map<FlowId, std::uint64_t> out;
  for (const SchedGrant& g : grants) out[g.flow->id] += g.bytes;
  return out;
}

int TotalRbs(const std::vector<SchedGrant>& grants) {
  int total = 0;
  for (const SchedGrant& g : grants) total += g.rbs;
  return total;
}

TEST(RbsForBytes, CeilingDivision) {
  EXPECT_EQ(RbsForBytes(0, 100), 0);
  EXPECT_EQ(RbsForBytes(1, 100), 1);
  EXPECT_EQ(RbsForBytes(100, 100), 1);
  EXPECT_EQ(RbsForBytes(101, 100), 2);
  EXPECT_EQ(RbsForBytes(100, 0), 0);
}

TEST(PfScheduler, NeverExceedsRbBudget) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(4);
  const auto grants = Grants(sched, f.candidates, 50, rng);
  EXPECT_LE(TotalRbs(grants), 50);
  EXPECT_EQ(TotalRbs(grants), 50);  // demand is ample, budget fully used
}

TEST(PfScheduler, RespectsMaxBytes) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 250);  // only 250 bytes allowed each
  const auto grants = Grants(sched, f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) EXPECT_LE(b, 250u);
  // 3 RBs each (ceil(250/100)), so 6 RBs total.
  EXPECT_EQ(TotalRbs(grants), 6);
}

TEST(PfScheduler, PrefersHigherMetric) {
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 400);
  f.states[0].pf_avg_bps = 1e6;  // well-served flow
  f.states[1].pf_avg_bps = 1e3;  // starved flow: much higher metric
  const auto grants = Grants(sched, f.candidates, 4, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_EQ(bytes.at(2), 400u);  // starved flow served first, fully
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(PfScheduler, FairOverManyTtisWithEwma) {
  // Emulate the cell's EWMA update loop and check long-run fairness
  // between two equally-capable backlogged flows.
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 5'000);
  std::map<FlowId, double> total;
  for (int tti = 0; tti < 2000; ++tti) {
    for (auto& c : f.candidates) c.max_bytes = 5'000;
    const auto grants = Grants(sched, f.candidates, 50, rng);
    std::map<FlowId, std::uint64_t> served = BytesByFlow(grants);
    for (FlowState& s : f.states) {
      const double rate = served.count(s.id) > 0
                              ? static_cast<double>(served[s.id]) * 8000.0
                              : 0.0;
      s.pf_avg_bps = 0.99 * s.pf_avg_bps + 0.01 * rate;
      total[s.id] += static_cast<double>(served[s.id]);
    }
  }
  const double ratio = total[1] / total[2];
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(PfScheduler, ProportionalFairFavoursGoodChannelProportionally) {
  // Flow 1 has 2x the spectral efficiency; PF should give it roughly 2x
  // the bytes while sharing RBs roughly equally.
  PfScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100, 1'000'000);
  f.candidates[0].bytes_per_rb = 200;
  std::map<FlowId, double> bytes_total;
  std::map<FlowId, double> rbs_total;
  for (int tti = 0; tti < 4000; ++tti) {
    const auto grants = Grants(sched, f.candidates, 50, rng);
    for (const SchedGrant& g : grants) {
      bytes_total[g.flow->id] += static_cast<double>(g.bytes);
      rbs_total[g.flow->id] += g.rbs;
    }
    const std::map<FlowId, std::uint64_t> served = BytesByFlow(grants);
    for (FlowState& s : f.states) {
      const auto it = served.find(s.id);
      const double rate = it != served.end()
                              ? static_cast<double>(it->second) * 8000.0
                              : 0.0;
      s.pf_avg_bps = 0.99 * s.pf_avg_bps + 0.01 * rate;
    }
  }
  EXPECT_NEAR(rbs_total[1] / rbs_total[2], 1.0, 0.15);
  EXPECT_NEAR(bytes_total[1] / bytes_total[2], 2.0, 0.3);
}

TEST(RoundRobin, SplitsEvenlyWithEqualDemand) {
  RoundRobinScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(5, 100);
  const auto grants = Grants(sched, f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) EXPECT_EQ(b, 1000u);  // 10 RBs each
}

TEST(RoundRobin, RotatesStartAcrossTtis) {
  RoundRobinScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100);
  // 1 RB per TTI: the single grant should rotate across flows.
  std::map<FlowId, int> wins;
  for (int tti = 0; tti < 9; ++tti) {
    const auto grants = Grants(sched, f.candidates, 1, rng);
    ASSERT_EQ(grants.size(), 1u);
    ++wins[grants[0].flow->id];
  }
  EXPECT_EQ(wins[1], 3);
  EXPECT_EQ(wins[2], 3);
  EXPECT_EQ(wins[3], 3);
}

TEST(PssScheduler, GbrFlowsServedFirst) {
  PssScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100);
  // Flow 1 has a GBR debt; flows 2-3 are best-effort with huge PF metric.
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 2000.0;
  f.states[1].pf_avg_bps = 1.0;
  f.states[2].pf_avg_bps = 1.0;
  const auto grants = Grants(sched, f.candidates, 25, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GE(bytes.at(1), 2000u);  // GBR debt fully covered first
}

TEST(PssScheduler, GbrDebtCapsPhase1Service) {
  PssScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(1, 100);
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 300.0;  // only 3 RBs owed
  const auto grants = Grants(sched, f.candidates, 50, rng);
  // Phase 1 grants 3 RBs; phase 2 (PF) then fills the rest since the
  // queue still has data.
  EXPECT_EQ(TotalRbs(grants), 50);
}

TEST(PssScheduler, WithoutGbrDegeneratesToPf) {
  PssScheduler pss;
  PfScheduler pf;
  Rng rng1(1);
  Rng rng2(1);
  auto f1 = MakeFlows(4);
  auto f2 = MakeFlows(4);
  for (int i = 0; i < 4; ++i) {
    f1.states[static_cast<std::size_t>(i)].pf_avg_bps = 100.0 * (i + 1);
    f2.states[static_cast<std::size_t>(i)].pf_avg_bps = 100.0 * (i + 1);
  }
  const auto a = BytesByFlow(Grants(pss, f1.candidates, 50, rng1));
  const auto b = BytesByFlow(Grants(pf, f2.candidates, 50, rng2));
  EXPECT_EQ(a, b);
}

TEST(TwoPhaseGbr, VideoGbrBeatsDataEvenWhenStarved) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 4000.0;
  f.states[0].pf_avg_bps = 1e9;  // video "over-served" by PF standards
  f.states[1].type = FlowType::kData;
  f.states[1].pf_avg_bps = 1.0;  // data maximally starved
  const auto grants = Grants(sched, f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GE(bytes.at(1), 4000u);  // GBR served despite PF disadvantage
  EXPECT_GT(bytes.at(2), 0u);     // leftover RBs go to data in phase 2
}

TEST(TwoPhaseGbr, DataGbrDoesNotGetPhase1) {
  // Phase 1 is video-only: a data flow with (mis)configured GBR credit
  // must not jump the queue.
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kData;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 4000.0;
  f.states[0].pf_avg_bps = 1e9;
  f.states[1].type = FlowType::kVideo;
  f.states[1].pf_avg_bps = 1.0;
  const auto grants = Grants(sched, f.candidates, 10, rng);
  const auto bytes = BytesByFlow(grants);
  // Without phase-1 priority the PF pass serves the starved video flow.
  EXPECT_GT(bytes.at(2), 0u);
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(TwoPhaseGbr, MultipleVideoFlowsMostStarvedFirst) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  for (auto& s : f.states) {
    s.type = FlowType::kVideo;
    s.gbr_bps = 1e6;
  }
  f.states[0].gbr_credit_bytes = 500.0;
  f.states[1].gbr_credit_bytes = 2000.0;
  // Only 5 RBs: the flow with the larger debt wins them all.
  const auto grants = Grants(sched, f.candidates, 5, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_EQ(bytes.at(2), 500u);
  EXPECT_EQ(bytes.count(1), 0u);
}

TEST(TwoPhaseGbr, VideoOnlyPhase2ExcludesData) {
  TwoPhaseGbrScheduler sched(/*video_only_phase2=*/true);
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[1].type = FlowType::kData;
  const auto grants = Grants(sched, f.candidates, 50, rng);
  const auto bytes = BytesByFlow(grants);
  EXPECT_GT(bytes.at(1), 0u);
  EXPECT_EQ(bytes.count(2), 0u);
}

// Regression: a video flow with a small GBR debt and a deep queue used to
// receive two grants per TTI (one in the GBR phase, one in the PF phase).
// The documented contract is now: phase-2 opportunistic borrowing is
// allowed, but callers see exactly one coalesced grant per flow.
TEST(TwoPhaseGbr, OneGrantPerFlowAcrossPhases) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(2, 100);
  f.states[0].type = FlowType::kVideo;
  f.states[0].gbr_bps = 1e6;
  f.states[0].gbr_credit_bytes = 300.0;  // 3 RBs owed, 47 left over
  f.states[1].type = FlowType::kData;
  const auto grants = Grants(sched, f.candidates, 50, rng);
  std::map<FlowId, int> multiplicity;
  for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
  for (const auto& [id, n] : multiplicity) {
    EXPECT_EQ(n, 1) << "flow " << id << " got " << n << " grants";
  }
  // The video flow was served in both phases (debt + borrowed RBs), so
  // its single grant must exceed the phase-1 debt.
  EXPECT_GT(BytesByFlow(grants).at(1), 300u);
  EXPECT_LE(TotalRbs(grants), 50);
  EXPECT_EQ(sched.tti_stats().rbs_priority, 3);
  EXPECT_EQ(sched.tti_stats().rbs_shared, 47);
}

TEST(TwoPhaseGbr, BorrowingNeverExceedsMaxBytesOrBudget) {
  TwoPhaseGbrScheduler sched;
  Rng rng(1);
  auto f = MakeFlows(3, 100, /*max_bytes=*/800);
  for (auto& s : f.states) {
    s.type = FlowType::kVideo;
    s.gbr_bps = 1e6;
    s.gbr_credit_bytes = 500.0;
  }
  const auto grants = Grants(sched, f.candidates, 50, rng);
  std::map<FlowId, int> multiplicity;
  for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
  for (const auto& [id, n] : multiplicity) EXPECT_EQ(n, 1);
  for (const auto& [id, b] : BytesByFlow(grants)) {
    EXPECT_LE(b, 800u) << "flow " << id
                       << " exceeded max_bytes across phases";
  }
  EXPECT_LE(TotalRbs(grants), 50);
}

TEST(AllSchedulers, OneGrantPerFlowEverywhere) {
  Rng rng(1);
  for (int which = 0; which < 4; ++which) {
    std::unique_ptr<Scheduler> sched;
    switch (which) {
      case 0: sched = std::make_unique<PfScheduler>(); break;
      case 1: sched = std::make_unique<PssScheduler>(); break;
      case 2: sched = std::make_unique<TwoPhaseGbrScheduler>(); break;
      default: sched = std::make_unique<RoundRobinScheduler>(); break;
    }
    auto f = MakeFlows(4, 100);
    f.states[0].type = FlowType::kVideo;
    f.states[0].gbr_bps = 1e6;
    f.states[0].gbr_credit_bytes = 200.0;
    const auto grants = Grants(*sched, f.candidates, 50, rng);
    std::map<FlowId, int> multiplicity;
    for (const SchedGrant& g : grants) ++multiplicity[g.flow->id];
    for (const auto& [id, n] : multiplicity) {
      EXPECT_EQ(n, 1) << "scheduler " << which << ", flow " << id;
    }
  }
}

TEST(AllSchedulers, EmptyCandidatesYieldNoGrants) {
  std::vector<SchedCandidate> empty;
  Rng rng(1);
  EXPECT_TRUE(Grants(PfScheduler{}, empty, 50, rng).empty());
  EXPECT_TRUE(Grants(PssScheduler{}, empty, 50, rng).empty());
  EXPECT_TRUE(Grants(TwoPhaseGbrScheduler{}, empty, 50, rng).empty());
  EXPECT_TRUE(Grants(RoundRobinScheduler{}, empty, 50, rng).empty());
}

TEST(AllSchedulers, ZeroRbsYieldNoGrants) {
  Rng rng(1);
  auto f = MakeFlows(3);
  EXPECT_TRUE(Grants(PfScheduler{}, f.candidates, 0, rng).empty());
  EXPECT_TRUE(Grants(PssScheduler{}, f.candidates, 0, rng).empty());
  EXPECT_TRUE(Grants(TwoPhaseGbrScheduler{}, f.candidates, 0, rng).empty());
}

// Allocate replaces the caller's grants vector. Reusing one vector across
// TTIs of changing size (with stale grants left in it) must give exactly
// what fresh vectors give, for every scheduler.
TEST(AllSchedulers, ReusedGrantsVectorMatchesFreshVectors) {
  const auto make = [](int which) -> std::unique_ptr<Scheduler> {
    switch (which) {
      case 0: return std::make_unique<PfScheduler>();
      case 1: return std::make_unique<PssScheduler>();
      case 2: return std::make_unique<TwoPhaseGbrScheduler>();
      default: return std::make_unique<RoundRobinScheduler>();
    }
  };
  for (int which = 0; which < 4; ++which) {
    auto reused_sched = make(which);
    auto fresh_sched = make(which);
    Rng rng(3);
    std::vector<SchedGrant> reused(5, SchedGrant{nullptr, 7, 7});  // stale
    for (int tti = 0; tti < 12; ++tti) {
      const int n = 1 + (tti * 5) % 7;  // 1..7 flows, shrinking and growing
      auto f = MakeFlows(n, 60 + 10 * static_cast<std::uint32_t>(tti % 3),
                         400 + 300 * static_cast<std::uint64_t>(tti % 4));
      for (int i = 0; i < n; i += 2) {
        FlowState& s = f.states[static_cast<std::size_t>(i)];
        s.type = FlowType::kVideo;
        s.gbr_bps = 1e6;
        s.gbr_credit_bytes = 150.0 * (i + 1);
        s.pf_avg_bps = 1e5 * (i + 1);
      }
      const int n_rbs = tti == 5 ? 0 : 20;
      reused_sched->Allocate(f.candidates, n_rbs, rng, reused);
      const auto fresh = Grants(*fresh_sched, f.candidates, n_rbs, rng);
      ASSERT_EQ(reused.size(), fresh.size()) << which << " tti " << tti;
      for (std::size_t g = 0; g < fresh.size(); ++g) {
        EXPECT_EQ(reused[g].flow, fresh[g].flow) << which << " tti " << tti;
        EXPECT_EQ(reused[g].rbs, fresh[g].rbs) << which << " tti " << tti;
        EXPECT_EQ(reused[g].bytes, fresh[g].bytes) << which << " tti " << tti;
      }
    }
  }
}

// Property sweep: RB conservation and byte-vs-RB consistency across
// schedulers and loads.
class SchedulerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SchedulerProperty, ConservationHolds) {
  const auto [which, n_flows, n_rbs] = GetParam();
  std::unique_ptr<Scheduler> sched;
  switch (which) {
    case 0:
      sched = std::make_unique<PfScheduler>();
      break;
    case 1:
      sched = std::make_unique<PssScheduler>();
      break;
    default:
      sched = std::make_unique<TwoPhaseGbrScheduler>();
      break;
  }
  Rng rng(static_cast<std::uint64_t>(which * 100 + n_flows));
  auto f = MakeFlows(n_flows, 80, 3'000);
  // Mix in GBR video flows.
  for (int i = 0; i < n_flows; i += 2) {
    f.states[static_cast<std::size_t>(i)].type = FlowType::kVideo;
    f.states[static_cast<std::size_t>(i)].gbr_bps = 5e5;
    f.states[static_cast<std::size_t>(i)].gbr_credit_bytes = 400.0;
  }
  const auto grants = Grants(*sched, f.candidates, n_rbs, rng);
  EXPECT_LE(TotalRbs(grants), n_rbs);
  const auto bytes = BytesByFlow(grants);
  for (const auto& [id, b] : bytes) {
    EXPECT_LE(b, 3'000u) << "flow " << id << " exceeded max_bytes";
  }
  for (const SchedGrant& g : grants) {
    EXPECT_LE(g.bytes,
              static_cast<std::uint64_t>(g.rbs) * 80u);  // TBS respected
    EXPECT_GT(g.rbs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 3, 8, 16),
                       ::testing::Values(1, 6, 50, 100)));

}  // namespace
}  // namespace flare
