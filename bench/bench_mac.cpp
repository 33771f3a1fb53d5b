// Microbenchmarks (google-benchmark) for the per-TTI hot path measured in
// isolation: one cell's MAC loop (channel refresh, token buckets, PSS,
// grant application, delivery), the same cell carrying greedy TCP flows,
// and the discrete-event queue's steady push/pop cycle underneath every
// scenario.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "lte/cell.h"
#include "lte/channel.h"
#include "lte/mobility.h"
#include "lte/pss_scheduler.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"
#include "util/rng.h"
#include "util/time.h"

namespace flare {
namespace {

constexpr int kTtisPerIteration = 1000;

// SimStaticPreset's cell: 8 UEs placed at random on the faded channel,
// 25 RBs, PSS. Every queue stays saturated (delivered bytes are offered
// again), so each TTI schedules all eight flows.
void BM_CellTti(benchmark::State& state) {
  Simulator sim;
  CellConfig config;
  config.num_rbs = 25;
  Cell cell(sim, std::make_unique<PssScheduler>(), config, Rng(1));
  const RadioConfig radio;
  Rng placement(7);
  for (int i = 0; i < 8; ++i) {
    auto mobility = std::make_shared<StaticMobility>(
        RandomPositionInAnnulus(50.0, 900.0, placement));
    const UeId ue = cell.AddUe(std::make_unique<FadedMobilityChannel>(
        mobility, radio, Rng(static_cast<std::uint64_t>(100 + i))));
    const FlowId flow = cell.AddFlow(ue, FlowType::kVideo);
    if (i % 2 == 0) cell.SetGbr(flow, 500e3);
    cell.Enqueue(flow, config.queue_limit_bytes);
  }
  cell.SetDeliveryCallback([&cell](FlowId flow, std::uint64_t bytes,
                                   SimTime) { cell.Enqueue(flow, bytes); });
  cell.Start();
  sim.RunUntil(FromSeconds(1.0));  // warm-up
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + kTtisPerIteration * kTti);
  }
  state.SetItemsProcessed(state.iterations() * kTtisPerIteration);
  benchmark::DoNotOptimize(cell.total_rbs_used());
}
BENCHMARK(BM_CellTti);

// The transport half of the per-event cost: BM_CellTti's cell with every
// flow a TransportHost greedy TCP source, so each delivery schedules an
// ACK and each ACK may schedule a push. ns_per_event is wall time over
// every simulator event (TTIs included), the figure perfbench's
// sim.ns_per_event reports for the full stack.
void BM_TransportSteady(benchmark::State& state) {
  Simulator sim;
  CellConfig config;
  config.num_rbs = 25;
  Cell cell(sim, std::make_unique<PssScheduler>(), config, Rng(1));
  TransportHost host(sim, cell);
  const RadioConfig radio;
  Rng placement(7);
  for (int i = 0; i < 8; ++i) {
    auto mobility = std::make_shared<StaticMobility>(
        RandomPositionInAnnulus(50.0, 900.0, placement));
    const UeId ue = cell.AddUe(std::make_unique<FadedMobilityChannel>(
        mobility, radio, Rng(static_cast<std::uint64_t>(100 + i))));
    host.MakeGreedy(host.CreateFlow(ue, FlowType::kData).id());
  }
  cell.Start();
  sim.RunUntil(FromSeconds(5.0));  // warm-up: slow start, slab growth
  const std::uint64_t events_before = sim.events_processed();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sim.RunUntil(sim.Now() + kTtisPerIteration * kTti);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto events =
      static_cast<double>(sim.events_processed() - events_before);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["ns_per_event"] = elapsed.count() / events;
  state.counters["events_per_tti"] = benchmark::Counter(
      events / static_cast<double>(state.iterations() * kTtisPerIteration));
}
BENCHMARK(BM_TransportSteady);

// A queue holding `range(0)` pending events; each iteration pops the
// earliest and its callback pushes one replacement at a pseudo-random
// later time, so the population (and the heap depth) stays constant.
void BM_EventQueueSteady(benchmark::State& state) {
  struct Steady {
    EventQueue queue;
    SimTime now = 0;
    std::uint64_t lcg = 1;
    void Schedule() {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto delay = static_cast<SimTime>(1 + (lcg >> 33) % 1000);
      queue.Push(now + delay, [this] { Schedule(); });
    }
  };
  Steady steady;
  for (std::int64_t i = 0; i < state.range(0); ++i) steady.Schedule();
  for (auto _ : state) {
    steady.now = steady.queue.NextTime();
    steady.queue.RunNext();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteady)->Arg(16)->Arg(1024);

}  // namespace
}  // namespace flare

BENCHMARK_MAIN();
