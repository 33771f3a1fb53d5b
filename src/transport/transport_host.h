// Transport host: owns all TCP flows over one cell and demultiplexes the
// cell's single delivery/drop callback pair to the per-flow objects.
// Also provides the greedy "iperf" source used for background data flows.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "lte/cell.h"
#include "transport/tcp_flow.h"

namespace flare {

class TransportHost {
 public:
  TransportHost(Simulator& sim, Cell& cell);
  /// Cancels the greedy top-up ticks; the flows cancel their own events.
  ~TransportHost() { sim_.CancelOwned(this); }

  TransportHost(const TransportHost&) = delete;
  TransportHost& operator=(const TransportHost&) = delete;

  /// Create a flow of `type` for UE `ue`; returns the TcpFlow (owned by the
  /// host; valid until DestroyFlow or host destruction).
  TcpFlow& CreateFlow(UeId ue, FlowType type,
                      const TcpConfig& config = TcpConfig{});

  void DestroyFlow(FlowId id);

  TcpFlow& flow(FlowId id);
  bool Has(FlowId id) const { return flows_.count(id) > 0; }

  /// Turn a flow into a greedy source: the application backlog is topped up
  /// whenever it drains (iperf-style bulk transfer).
  void MakeGreedy(FlowId id);

 private:
  void TopUpGreedy(FlowId id);
  /// Self-rescheduling top-up tick; the chain ends at the first tick
  /// that finds the flow gone from greedy_.
  void ScheduleGreedyTick(FlowId id);

  Simulator& sim_;
  Cell& cell_;
  std::map<FlowId, std::unique_ptr<TcpFlow>> flows_;
  std::set<FlowId> greedy_;
};

}  // namespace flare
