#include "lte/pf_scheduler.h"

#include <algorithm>

namespace flare {

int RbsForBytes(std::uint64_t bytes, std::uint32_t bytes_per_rb) {
  if (bytes == 0 || bytes_per_rb == 0) return 0;
  return static_cast<int>((bytes + bytes_per_rb - 1) / bytes_per_rb);
}

void SchedScratch::Begin(std::size_t n_candidates,
                         std::vector<SchedGrant>& grants) {
  grants.clear();
  grants_ = &grants;
  grant_of_.assign(n_candidates, -1);
  order_.clear();
}

void SchedScratch::Grant(std::size_t idx, FlowState* flow, int rbs,
                         std::uint64_t bytes) {
  if (grant_of_[idx] < 0) {
    grant_of_[idx] = static_cast<std::ptrdiff_t>(grants_->size());
    grants_->push_back(SchedGrant{flow, rbs, bytes});
    return;
  }
  SchedGrant& g = (*grants_)[static_cast<std::size_t>(grant_of_[idx])];
  g.rbs += rbs;
  g.bytes += bytes;
}

int ProportionalFairPass(const std::vector<SchedCandidate>& candidates,
                         int n_rbs, SchedScratch& scratch, bool video_only) {
  if (n_rbs <= 0) return 0;

  // Wideband CQI: the PF metric of a flow is constant within the TTI, so a
  // single descending sort followed by greedy filling is exact.
  std::vector<std::size_t>& order = scratch.order();
  std::vector<double>& metric = scratch.pf_metric();
  order.clear();
  metric.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SchedCandidate& c = candidates[i];
    if (video_only && c.flow->type != FlowType::kVideo) continue;
    order.push_back(i);
    metric[i] = static_cast<double>(c.bytes_per_rb) /
                std::max(c.flow->pf_avg_bps, 1e-9);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (metric[a] != metric[b]) return metric[a] > metric[b];
    return candidates[a].flow->id < candidates[b].flow->id;  // tie-break
  });

  int used = 0;
  for (std::size_t idx : order) {
    if (used >= n_rbs) break;
    const SchedCandidate& c = candidates[idx];
    if (c.bytes_per_rb == 0) continue;
    const std::uint64_t got = scratch.granted(idx);
    if (got >= c.max_bytes) continue;
    const std::uint64_t want = c.max_bytes - got;
    const int rbs = std::min(RbsForBytes(want, c.bytes_per_rb), n_rbs - used);
    if (rbs <= 0) continue;
    const std::uint64_t bytes = std::min<std::uint64_t>(
        want, static_cast<std::uint64_t>(rbs) * c.bytes_per_rb);
    scratch.Grant(idx, c.flow, rbs, bytes);
    used += rbs;
  }
  return used;
}

void PfScheduler::Allocate(std::vector<SchedCandidate>& candidates,
                           int n_rbs, Rng& /*rng*/,
                           std::vector<SchedGrant>& grants) {
  scratch_.Begin(candidates.size(), grants);
  tti_stats_ = SchedTtiStats{};
  tti_stats_.rbs_shared = ProportionalFairPass(candidates, n_rbs, scratch_);
}

void RoundRobinScheduler::Allocate(std::vector<SchedCandidate>& candidates,
                                   int n_rbs, Rng& /*rng*/,
                                   std::vector<SchedGrant>& grants) {
  scratch_.Begin(candidates.size(), grants);
  tti_stats_ = SchedTtiStats{};
  if (candidates.empty() || n_rbs <= 0) return;

  // Rotate the starting flow each TTI, then hand out RBs one flow at a
  // time in equal chunks until RBs or demand run out. A flow's RBs merge
  // into one grant, placed where it was first served.
  const std::size_t n = candidates.size();
  next_ %= n;
  int used = 0;
  bool progress = true;
  while (used < n_rbs && progress) {
    progress = false;
    for (std::size_t k = 0; k < n && used < n_rbs; ++k) {
      const std::size_t idx = (next_ + k) % n;
      const SchedCandidate& c = candidates[idx];
      const std::uint64_t got = scratch_.granted(idx);
      if (c.bytes_per_rb == 0 || got >= c.max_bytes) continue;
      const std::uint64_t bytes = std::min<std::uint64_t>(
          c.max_bytes - got, c.bytes_per_rb);
      scratch_.Grant(idx, c.flow, 1, bytes);
      ++used;
      progress = true;
    }
  }
  ++next_;
  tti_stats_.rbs_shared = used;
}

}  // namespace flare
