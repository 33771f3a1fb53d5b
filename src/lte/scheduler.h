// MAC downlink scheduler interface.
//
// Each TTI the cell builds one SchedCandidate per flow with pending data
// (and positive MBR credit) and asks the scheduler to distribute the TTI's
// resource blocks. Wideband CQI is assumed: every RB of a UE carries the
// same number of bytes in a given TTI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lte/flow_state.h"
#include "util/rng.h"

namespace flare {

struct SchedCandidate {
  FlowState* flow = nullptr;
  /// Bytes one RB carries for this UE this TTI (from its I_TBS).
  std::uint32_t bytes_per_rb = 0;
  /// Upper bound on bytes the flow may receive this TTI
  /// (min of queue and MBR credit).
  std::uint64_t max_bytes = 0;
};

struct SchedGrant {
  FlowState* flow = nullptr;
  int rbs = 0;
  std::uint64_t bytes = 0;
};

/// How the last Allocate split the TTI's RBs between its scheduling
/// phases. Single-phase schedulers report everything as `rbs_shared`.
struct SchedTtiStats {
  int rbs_priority = 0;  // GBR / priority-set phase
  int rbs_shared = 0;    // PF / round-robin (shared) phase
};

/// Per-TTI working memory of a scheduler, kept between Allocate calls so a
/// steady-state TTI allocates nothing. It indexes everything by candidate
/// position: the grant (if any) each candidate holds, the phases' sort
/// order and the PF metric.
class SchedScratch {
 public:
  /// Start a TTI over `n_candidates` candidates writing into `grants`,
  /// which is cleared.
  void Begin(std::size_t n_candidates, std::vector<SchedGrant>& grants);

  /// Give candidate `idx` (flow `flow`) `rbs` RBs carrying `bytes`. A
  /// candidate served twice (two phases, or round robin's one RB at a
  /// time) keeps one grant, at the position of its first service, with
  /// the RBs and bytes summed.
  void Grant(std::size_t idx, FlowState* flow, int rbs, std::uint64_t bytes);

  /// Bytes granted to candidate `idx` so far this TTI.
  std::uint64_t granted(std::size_t idx) const {
    if (grant_of_[idx] < 0) return 0;
    return (*grants_)[static_cast<std::size_t>(grant_of_[idx])].bytes;
  }

  /// Candidate indices for a phase to fill and sort.
  std::vector<std::size_t>& order() { return order_; }
  /// The proportional-fair metric of each candidate.
  std::vector<double>& pf_metric() { return pf_metric_; }

 private:
  std::vector<SchedGrant>* grants_ = nullptr;
  std::vector<std::ptrdiff_t> grant_of_;  // grant index, -1 = none yet
  std::vector<std::size_t> order_;
  std::vector<double> pf_metric_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Distribute `n_rbs` resource blocks over `candidates`, replacing the
  /// contents of the caller-owned `grants` (reusing its capacity). Grants
  /// must not exceed each candidate's max_bytes (except for the final
  /// partially filled RB), the total RB count must not exceed n_rbs, and
  /// each flow appears in at most one grant (two-phase schedulers merge a
  /// flow's phase-1 and phase-2 service into a single aggregate grant).
  virtual void Allocate(std::vector<SchedCandidate>& candidates, int n_rbs,
                        Rng& rng, std::vector<SchedGrant>& grants) = 0;

  virtual std::string Name() const = 0;

  /// Phase breakdown of the most recent Allocate call.
  const SchedTtiStats& tti_stats() const { return tti_stats_; }

 protected:
  SchedTtiStats tti_stats_;
  SchedScratch scratch_;
};

/// RBs needed to move `bytes` at `bytes_per_rb` per RB (ceiling division).
int RbsForBytes(std::uint64_t bytes, std::uint32_t bytes_per_rb);

/// Shared helper: the GBR priority phase. Candidates whose flow has a GBR
/// and positive GBR credit (video flows only when `video_only`) are served,
/// most starved first, up to that credit. Grants through `scratch` and
/// returns RBs used.
int GbrPriorityPass(const std::vector<SchedCandidate>& candidates, int n_rbs,
                    SchedScratch& scratch, bool video_only = false);

/// Shared helper: proportional-fair allocation of up to `n_rbs` RBs over
/// the candidate list (video flows only when `video_only`), net of the
/// bytes earlier phases already granted through `scratch`. Grants through
/// `scratch` and returns RBs used.
int ProportionalFairPass(const std::vector<SchedCandidate>& candidates,
                         int n_rbs, SchedScratch& scratch,
                         bool video_only = false);

}  // namespace flare
