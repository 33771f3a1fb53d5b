// Heap allocations made by the simulation's own events: transport pushes
// and ACKs, the HTTP uplink GET and the player's timers capture only
// `this` and a word, so they fit std::function's inline buffer. Every
// operator new in this binary is counted while g_count_allocations is set.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "lte/cell.h"
#include "lte/channel.h"
#include "lte/mobility.h"
#include "lte/pss_scheduler.h"
#include "net/pcrf.h"
#include "scenario/scenario.h"
#include "scenario/scenario_world.h"
#include "sim/simulator.h"
#include "transport/http.h"
#include "transport/transport_host.h"

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace flare {
namespace {

// A saturated 8-UE faded cell under PSS: seven greedy TCP flows and one
// video flow carrying a single GET far larger than the window. Between
// warm-up and the end of the window only TCP push, ACK, delivery, greedy
// top-up and TTI events run, and none of them may touch the heap.
TEST(EventAlloc, SteadyTransportWindowDoesNotAllocate) {
  Simulator sim;
  CellConfig config;
  config.num_rbs = 25;
  Cell cell(sim, std::make_unique<PssScheduler>(), config, Rng(1));
  TransportHost host(sim, cell);
  const RadioConfig radio;
  Rng placement(7);
  TcpFlow* video = nullptr;
  for (int i = 0; i < 8; ++i) {
    auto mobility = std::make_shared<StaticMobility>(
        RandomPositionInAnnulus(50.0, 900.0, placement));
    const UeId ue = cell.AddUe(std::make_unique<FadedMobilityChannel>(
        mobility, radio, Rng(static_cast<std::uint64_t>(100 + i))));
    TcpFlow& flow =
        host.CreateFlow(ue, i == 0 ? FlowType::kVideo : FlowType::kData);
    if (i == 0) {
      video = &flow;
    } else {
      host.MakeGreedy(flow.id());
    }
  }
  HttpClient http(sim, *video);
  bool completed = false;
  http.Get(std::uint64_t{1} << 40,
           [&completed](const HttpResult&) { completed = true; });
  cell.Start();
  sim.RunUntil(FromSeconds(5.0));  // warm-up: slow start, slab growth

  const std::uint64_t events_before = sim.events_processed();
  const std::uint64_t video_before = video->bytes_delivered();
  g_allocations.store(0);
  g_count_allocations.store(true);
  sim.RunUntil(FromSeconds(15.0));
  g_count_allocations.store(false);

  // 10000 TTIs plus more than as many transport events.
  EXPECT_GT(sim.events_processed() - events_before, 20000u);
  EXPECT_GT(video->bytes_delivered(), video_before);
  EXPECT_FALSE(completed);
  EXPECT_EQ(g_allocations.load(), 0u);
}

// The paper's Table III cell under FLARE, steady: per-segment work (a new
// GET, its completion, the ABR's history) and the per-BAI decision still
// allocate, the per-event transport and player timers do not. With a
// liveness token in every event capture this window made about 3170
// allocations per simulated second; the bound is a tenth of that.
TEST(EventAlloc, SimStaticSteadyWindowAllocationsAreBounded) {
  ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
  Simulator sim;
  Pcrf pcrf;
  ScenarioWorld world(config, sim, pcrf, Rng(config.seed));
  world.Start();
  sim.RunUntil(FromSeconds(60.0));  // warm-up: every player streaming

  constexpr double kWindowS = 120.0;
  g_allocations.store(0);
  g_count_allocations.store(true);
  sim.RunUntil(FromSeconds(60.0 + kWindowS));
  g_count_allocations.store(false);

  const double per_second =
      static_cast<double>(g_allocations.load()) / kWindowS;
  RecordProperty("allocations_per_sim_second", std::to_string(per_second));
  EXPECT_LE(per_second, 317.0);
}

}  // namespace
}  // namespace flare
