// The OneAPI server's per-BAI decision core (Figure 1, Section II-A).
//
// Each bitrate assignment interval the operator-side server reads every
// flow's achieved bits-per-RB e_u, admits arrivals, solves Algorithm 1
// and pushes each flow's GBR and rung. BaiCore owns every decision in
// that loop; the two front-ends only move bytes:
//
//  * net/OneApiServer drives it from the simulator (delayed connects,
//    PCRF registration, RB & Rate Trace windows, PCEF + plugin delivery);
//  * svc/OneApiService drives it from sockets (framing, session caps,
//    pending stats reports, bounded outboxes).
//
// Because both call the same code, an assignment stream on the wire is
// byte-identical to an in-process run over the same schedule by
// construction (tests/oneapi_service_test.cpp keeps that as a guard).
//
// What the core decides:
//  * the admitted-session table, iterated in ascending FlowId;
//  * admission: the candidate pinned at its floor rung is offered to the
//    attached AdmissionController, which is kept current through
//    OnAdmitted / OnDeparted / OnEstimate (called only from here);
//  * the EWMA over e_u samples (`efficiency_smoothing`, 1.0 = raw);
//  * the skimming pin: a skimming viewer is capped at rung 0;
//  * the assignment message, gbr = rate * gbr_headroom.
//
// Sample-source contract. A BAI is two calls, Gather then Decide, so a
// front-end can time the solve on its own. Gather asks the front-end's
// sample source for each admitted session, in ascending FlowId, for this
// BAI's raw e_u sample: `std::optional<double>(FlowId, const
// BaiSession&)`. A value is folded into the EWMA and yields one
// observation; nullopt skips the flow for this BAI (no EWMA step, no
// observation). What a front-end returns for a flow that sent nothing is
// its own rule, and both rules are kept bit-exact:
//  * OneApiServer skips flows that left the cell and samples the
//    channel's nominal per-RB capacity (TBS at the current MCS) for a
//    flow idle all BAI;
//  * OneApiService re-feeds the session's smoothed estimate, or
//    `default_bits_per_rb` before its first stats report.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "churn/admission.h"
#include "core/rate_controller.h"
#include "net/messages.h"

namespace flare {

/// One admitted session: the client's disclosed constraints plus the
/// e_u estimate the core maintains.
struct BaiSession {
  std::optional<int> max_level;
  std::optional<VideoUtilityParams> utility;
  bool skimming = false;
  double smoothed_bits_per_rb = 0.0;  // 0 = no observation yet
  double last_sample = 0.0;           // latest raw e_u fed to the EWMA
};

class BaiCore {
 public:
  BaiCore(const FlareParams& params, double efficiency_smoothing,
          double gbr_headroom);

  /// Attach an admission controller (not owned; null admits everyone and
  /// makes no admission calls).
  void SetAdmission(AdmissionController* admission) { admission_ = admission; }
  AdmissionController* admission() const { return admission_; }

  /// Offer an arrival to the admission controller at its floor rung with
  /// the front-end's connect-time `bits_per_rb` estimate; on admit,
  /// register the session with the controller and the session table
  /// (replacing any entry under the same flow). Without an admission
  /// controller every arrival is admitted (value 0).
  AdmissionDecision Admit(const ClientInfo& info, double bits_per_rb,
                          int n_data_flows, double rb_rate);
  /// Mid-session client-info refresh: the constraints change, the ladder
  /// does not. Unknown flows are ignored (teardown race).
  void Refresh(FlowId id, const ClientInfo& update);
  /// Forget `id` everywhere (no-op for unknown flows).
  void Depart(FlowId id);

  /// The session's current state; null for unknown flows.
  const BaiSession* Find(FlowId id) const;

  /// Build this BAI's observations from `sample` (see the contract
  /// above). The returned buffer is reused by the next Gather.
  template <typename SampleFn>
  const std::vector<FlowObservation>& Gather(SampleFn&& sample) {
    observations_.clear();
    for (auto& [id, session] : sessions_) {
      const std::optional<double> e = sample(id, std::as_const(session));
      if (e) Observe(id, session, *e);
    }
    return observations_;
  }

  /// Algorithm 1 over `observations` (FlareRateController::DecideBai).
  BaiDecision Decide(const std::vector<FlowObservation>& observations,
                     int n_data_flows, double rb_rate);

  /// The wire message enforcing `a`: its rung, rate and GBR.
  RateAssignmentMsg Assignment(const RateAssignment& a) const;

  FlareRateController& controller() { return controller_; }
  const FlareRateController& controller() const { return controller_; }

 private:
  void Observe(FlowId id, BaiSession& session, double sample);

  FlareRateController controller_;
  VideoUtilityParams default_utility_;
  double smoothing_;
  double gbr_headroom_;
  AdmissionController* admission_ = nullptr;
  std::map<FlowId, BaiSession> sessions_;
  std::vector<FlowObservation> observations_;
};

}  // namespace flare
