#include "lte/pss_scheduler.h"

#include <algorithm>

namespace flare {

int GbrPriorityPass(const std::vector<SchedCandidate>& candidates, int n_rbs,
                    SchedScratch& scratch, bool video_only) {
  std::vector<std::size_t>& priority = scratch.order();
  priority.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const FlowState& f = *candidates[i].flow;
    if (video_only && f.type != FlowType::kVideo) continue;
    if (f.has_gbr() && f.gbr_credit_bytes > 0.0) priority.push_back(i);
  }
  std::sort(priority.begin(), priority.end(),
            [&](std::size_t a, std::size_t b) {
              const double ca = candidates[a].flow->gbr_credit_bytes;
              const double cb = candidates[b].flow->gbr_credit_bytes;
              if (ca != cb) return ca > cb;  // most starved first
              return candidates[a].flow->id < candidates[b].flow->id;
            });

  int used = 0;
  for (std::size_t idx : priority) {
    if (used >= n_rbs) break;
    const SchedCandidate& c = candidates[idx];
    if (c.bytes_per_rb == 0) continue;
    // Serve up to the GBR debt (token credit), bounded by queue/MBR.
    const auto owed = static_cast<std::uint64_t>(
        std::max(c.flow->gbr_credit_bytes, 0.0));
    const std::uint64_t want = std::min<std::uint64_t>(owed, c.max_bytes);
    if (want == 0) continue;
    const int rbs = std::min(RbsForBytes(want, c.bytes_per_rb), n_rbs - used);
    if (rbs <= 0) continue;
    const std::uint64_t bytes = std::min<std::uint64_t>(
        want, static_cast<std::uint64_t>(rbs) * c.bytes_per_rb);
    scratch.Grant(idx, c.flow, rbs, bytes);
    used += rbs;
  }
  return used;
}

void PssScheduler::Allocate(std::vector<SchedCandidate>& candidates,
                            int n_rbs, Rng& /*rng*/,
                            std::vector<SchedGrant>& grants) {
  scratch_.Begin(candidates.size(), grants);
  tti_stats_ = SchedTtiStats{};
  if (n_rbs <= 0) return;

  // --- Priority set: GBR flows still owed bytes this scheduling window.
  const int used = GbrPriorityPass(candidates, n_rbs, scratch_);
  tti_stats_.rbs_priority = used;

  // --- Frequency domain: leftover RBs under proportional fair, all flows.
  // As in the two-phase scheduler, a priority-set flow may be served again
  // here; its service merges into its one grant.
  tti_stats_.rbs_shared =
      ProportionalFairPass(candidates, n_rbs - used, scratch_);
}

}  // namespace flare
