#include "lte/gbr_scheduler.h"

namespace flare {

void TwoPhaseGbrScheduler::Allocate(std::vector<SchedCandidate>& candidates,
                                    int n_rbs, Rng& /*rng*/,
                                    std::vector<SchedGrant>& grants) {
  scratch_.Begin(candidates.size(), grants);
  tti_stats_ = SchedTtiStats{};
  if (n_rbs <= 0) return;

  // --- Phase 1: GBR-based scheduling of video flows, most starved first.
  const int used =
      GbrPriorityPass(candidates, n_rbs, scratch_, /*video_only=*/true);
  tti_stats_.rbs_priority = used;

  // --- Phase 2: legacy proportional fair over the remaining RBs. A video
  // flow already served in phase 1 may win further RBs here (that is the
  // opportunistic borrowing §IV-A credits for zero underflow); its two
  // partial services merge so callers see one grant per flow.
  tti_stats_.rbs_shared = ProportionalFairPass(
      candidates, n_rbs - used, scratch_, video_only_phase2_);
}

}  // namespace flare
