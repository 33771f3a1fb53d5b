#include "net/bai_core.h"

#include <algorithm>

namespace flare {

BaiCore::BaiCore(const FlareParams& params, double efficiency_smoothing,
                 double gbr_headroom)
    : controller_(params),
      default_utility_(params.utility),
      smoothing_(std::clamp(efficiency_smoothing, 0.0, 1.0)),
      gbr_headroom_(gbr_headroom) {}

AdmissionDecision BaiCore::Admit(const ClientInfo& info, double bits_per_rb,
                                 int n_data_flows, double rb_rate) {
  AdmissionDecision decision;
  if (admission_ != nullptr) {
    AdmissionRequest request;
    request.flow = info.flow;
    request.candidate.ladder_bps = info.ladder_bps;
    request.candidate.utility = info.utility.value_or(default_utility_);
    request.candidate.bits_per_rb = bits_per_rb;
    // Arrivals enter at the lowest rung (Algorithm 1 caps new flows there).
    request.candidate.min_level = 0;
    request.candidate.max_level = 0;
    request.n_data_flows = n_data_flows;
    request.rb_rate = rb_rate;
    decision = admission_->Decide(request);
    if (!decision.admit) return decision;
    // Track the admitted flow over its full ladder from now on.
    request.candidate.max_level =
        static_cast<int>(request.candidate.ladder_bps.size()) - 1;
    admission_->OnAdmitted(info.flow, request.candidate);
  }
  controller_.AddFlow(info.flow, info.ladder_bps);
  BaiSession session;
  session.max_level = info.max_level;
  session.utility = info.utility;
  session.skimming = info.skimming;
  sessions_[info.flow] = session;
  return decision;
}

void BaiCore::Refresh(FlowId id, const ClientInfo& update) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second.max_level = update.max_level;
  it->second.utility = update.utility;
  it->second.skimming = update.skimming;
}

void BaiCore::Depart(FlowId id) {
  controller_.RemoveFlow(id);
  sessions_.erase(id);
  if (admission_ != nullptr) admission_->OnDeparted(id);
}

const BaiSession* BaiCore::Find(FlowId id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void BaiCore::Observe(FlowId id, BaiSession& session, double sample) {
  session.last_sample = sample;
  session.smoothed_bits_per_rb =
      session.smoothed_bits_per_rb <= 0.0
          ? sample
          : (1.0 - smoothing_) * session.smoothed_bits_per_rb +
                smoothing_ * sample;
  // Keep the admission controller's capacity picture current, so
  // between-BAI arrivals price against live efficiencies.
  if (admission_ != nullptr) {
    admission_->OnEstimate(id, session.smoothed_bits_per_rb);
  }
  FlowObservation obs;
  obs.id = id;
  obs.bits_per_rb = session.smoothed_bits_per_rb;
  // A skimming viewer gets the minimum bitrate while it lasts.
  obs.client_max_level = session.skimming ? 0 : session.max_level;
  obs.utility = session.utility;
  observations_.push_back(obs);
}

BaiDecision BaiCore::Decide(const std::vector<FlowObservation>& observations,
                            int n_data_flows, double rb_rate) {
  return controller_.DecideBai(observations, n_data_flows, rb_rate);
}

RateAssignmentMsg BaiCore::Assignment(const RateAssignment& a) const {
  RateAssignmentMsg msg;
  msg.flow = a.id;
  msg.level = a.level;
  msg.rate_bps = a.rate_bps;
  msg.gbr_bps = a.rate_bps * gbr_headroom_;
  return msg;
}

}  // namespace flare
