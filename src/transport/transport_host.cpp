#include "transport/transport_host.h"

#include <stdexcept>

namespace flare {
namespace {
// Greedy sources keep this much application backlog queued at the sender.
constexpr std::uint64_t kGreedyChunkBytes = 1 << 20;
// Check/refill period for greedy sources.
constexpr SimTime kGreedyTopUpPeriod = 100 * kMillisecond;
}  // namespace

TransportHost::TransportHost(Simulator& sim, Cell& cell)
    : sim_(sim), cell_(cell) {
  cell_.SetDeliveryCallback(
      [this](FlowId id, std::uint64_t bytes, SimTime now) {
        const auto it = flows_.find(id);
        if (it != flows_.end()) it->second->HandleDelivery(bytes, now);
      });
  cell_.SetDropCallback([this](FlowId id, std::uint64_t bytes) {
    const auto it = flows_.find(id);
    if (it != flows_.end()) it->second->HandleDrop(bytes);
  });
}

TcpFlow& TransportHost::CreateFlow(UeId ue, FlowType type,
                                   const TcpConfig& config) {
  const FlowId id = cell_.AddFlow(ue, type);
  auto flow = std::make_unique<TcpFlow>(sim_, cell_, id, config);
  TcpFlow& ref = *flow;
  flows_.emplace(id, std::move(flow));
  return ref;
}

void TransportHost::DestroyFlow(FlowId id) {
  flows_.erase(id);
  greedy_.erase(id);
  cell_.RemoveFlow(id);
}

TcpFlow& TransportHost::flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    throw std::out_of_range("TransportHost: unknown flow");
  }
  return *it->second;
}

void TransportHost::MakeGreedy(FlowId id) {
  if (greedy_.count(id) > 0) return;
  greedy_.insert(id);
  TopUpGreedy(id);
  ScheduleGreedyTick(id);
}

void TransportHost::ScheduleGreedyTick(FlowId id) {
  // Not sim_.Every, which cannot be cancelled: with session churn every
  // destroyed flow would leave a timer firing for the rest of the run.
  sim_.After(
      kGreedyTopUpPeriod,
      [this, id] {
        if (greedy_.count(id) == 0) return;
        TopUpGreedy(id);
        ScheduleGreedyTick(id);
      },
      this);
}

void TransportHost::TopUpGreedy(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end() || greedy_.count(id) == 0) return;
  // Keep the sender saturated: refill before the application backlog runs
  // dry so the flow never starves between top-up ticks.
  if (it->second->pending_bytes() < kGreedyChunkBytes / 4) {
    it->second->Send(kGreedyChunkBytes);
  }
}

}  // namespace flare
