// The event log's flight views: window semantics, watchdog-latched
// snapshots, post-mortem dumps, the shard-merge determinism contract, the
// bounded (timeline-free) mode, and one record per fact end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
#include "scenario/scenario.h"
#include "svc/request_trace.h"
#include "util/json.h"

namespace flare {
namespace {

/// One structured fact at `t_s` seconds, the way producers record them.
void Fact(SpanTracer& tracer, double t_s, const char* name,
          FlowId flow = kInvalidFlow, int client = -1, double value = 0.0,
          std::string args = {}) {
  tracer.Instant(kLaneControl, "test", name, t_s * 1e6, std::move(args), flow,
                 client, value);
}

TEST(FlightWindow, RingKeepsLastCapacityEventsOldestFirst) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    Fact(tracer, static_cast<double>(i), "rung_change",
         static_cast<FlowId>(i), i, static_cast<double>(i * 10));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceEvent> events = tracer.RecentInstants();
  ASSERT_EQ(events.size(), 4u);
  // Events 6..9 survive, oldest first, with monotone seq.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_us, static_cast<double>(i + 6) * 1e6);
    EXPECT_EQ(events[i].seq, i + 6);
    EXPECT_EQ(events[i].flow, static_cast<FlowId>(i + 6));
  }
  // The timeline keeps all ten.
  EXPECT_EQ(tracer.size(), 10u);
}

TEST(FlightWindow, UnderCapacityRingIsStable) {
  SpanTracer tracer(8);
  Fact(tracer, 1.0, "gbr_push");
  Fact(tracer, 2.0, "admission_admit");
  EXPECT_EQ(tracer.dropped(), 0u);
  const std::vector<TraceEvent> events = tracer.RecentInstants();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "gbr_push");
  EXPECT_STREQ(events[1].name, "admission_admit");
}

TEST(FlightWindow, TriggerSnapshotLatchesFirstReasonOnly) {
  SpanTracer tracer(4);
  Fact(tracer, 1.0, "stall_begin", kInvalidFlow, 0);
  tracer.TriggerSnapshot("first", 1.5);
  Fact(tracer, 2.0, "stall_end", kInvalidFlow, 0);
  tracer.TriggerSnapshot("second", 2.5);
  EXPECT_TRUE(tracer.triggered());
  EXPECT_EQ(tracer.trigger_reason(), "first");
  EXPECT_DOUBLE_EQ(tracer.trigger_t_s(), 1.5);
  // The snapshot is the window as of the *first* alarm: the later
  // stall_end is in the live window but not the latched context.
  ASSERT_EQ(tracer.snapshot().size(), 1u);
  EXPECT_STREQ(tracer.snapshot()[0].name, "stall_begin");
  EXPECT_EQ(tracer.RecentInstants().size(), 2u);
}

TEST(FlightWindow, WatchdogAlarmRecordsEventAndLatchesSnapshot) {
  SpanTracer tracer(16);
  Fact(tracer, 0.1, "rung_change", 3, 0, 2.0, "{\"from\":1,\"to\":2}");

  RunHealthMonitor monitor;  // infeasible_streak = 3
  monitor.SetObservers(nullptr, &tracer);
  monitor.OnSolverResult(1.0, false);
  monitor.OnSolverResult(2.0, false);
  EXPECT_FALSE(tracer.triggered());  // streak not yet reached
  monitor.OnSolverResult(3.0, false);

  ASSERT_FALSE(monitor.healthy());
  EXPECT_TRUE(tracer.triggered());
  EXPECT_EQ(tracer.trigger_reason(), "infeasible_streak");
  // The snapshot holds the pre-alarm context plus the watchdog event.
  const std::vector<TraceEvent>& snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "rung_change");
  EXPECT_STREQ(snap[1].name, "watchdog");
  EXPECT_DOUBLE_EQ(snap[1].ts_us, 3.0e6);
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);  // the streak length
  // The alarm is one record: the timeline holds the same two instants.
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(FlightWindow, DumpPostmortemWritesParseableJson) {
  SpanTracer tracer(8);
  tracer.set_default_pid(3);  // cell 2
  Fact(tracer, 0.5, "admission_reject", 9, -1, 1.0, "{\"util\":0.93}");
  Fact(tracer, 0.75, "stall_begin", kInvalidFlow, 4);
  tracer.TriggerSnapshot("fail_on_unhealthy", 0.8);

  const std::string path =
      ::testing::TempDir() + "/flight_recorder_test_pm.json";
  ASSERT_TRUE(tracer.DumpPostmortem(path, "fail_on_unhealthy"));

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJsonFile(path, &doc, &error)) << error;
  for (const char* key : {"reason", "trigger", "capacity", "recorded",
                          "dropped", "snapshot", "recent"}) {
    EXPECT_NE(doc.Find(key), nullptr) << key;
  }
  EXPECT_EQ(doc.FindPath({"reason"})->AsString(), "fail_on_unhealthy");
  EXPECT_EQ(doc.FindPath({"trigger", "reason"})->AsString(),
            "fail_on_unhealthy");
  EXPECT_DOUBLE_EQ(doc.FindPath({"trigger", "t_s"})->AsNumber(), 0.8);
  EXPECT_EQ(doc.FindPath({"trigger", "cell"})->AsNumber(), 2.0);
  EXPECT_EQ(doc.Find("capacity")->AsNumber(), 8.0);
  const JsonValue* recent = doc.Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->items().size(), 2u);
  EXPECT_EQ(recent->items()[0].Find("kind")->AsString(), "admission_reject");
  EXPECT_DOUBLE_EQ(recent->items()[0].Find("t_s")->AsNumber(), 0.5);
  EXPECT_EQ(recent->items()[0].Find("cell")->AsNumber(), 2.0);
  EXPECT_EQ(recent->items()[0].Find("flow")->AsNumber(), 9.0);
  EXPECT_EQ(recent->items()[1].Find("client")->AsNumber(), 4.0);
  // args round-trips as a nested object, not a quoted blob.
  EXPECT_DOUBLE_EQ(
      recent->items()[0].FindPath({"args", "util"})->AsNumber(), 0.93);
  const JsonValue* snapshot = doc.Find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->items().size(), 2u);
  std::remove(path.c_str());
}

TEST(FlightWindow, DumpPostmortemFailsOnUnwritablePath) {
  SpanTracer tracer(4);
  EXPECT_FALSE(tracer.DumpPostmortem("/nonexistent/dir/pm.json", "x"));
}

TEST(FlightWindow, AbsorbShardMergesAndSortsDeterministically) {
  SpanTracer shard_a(4);
  shard_a.set_default_pid(1);
  Fact(shard_a, 1.0, "rung_change", 1);
  Fact(shard_a, 3.0, "gbr_push", 1);
  SpanTracer shard_b(4);
  shard_b.set_default_pid(2);
  Fact(shard_b, 2.0, "rung_change", 2);
  Fact(shard_b, 3.0, "admission_admit", 2);

  // Merge in both cell orders; sorted output must be byte-identical.
  const auto merge = [](const SpanTracer& first, const SpanTracer& second) {
    SpanTracer merged(4);
    merged.AbsorbShard(first);
    merged.AbsorbShard(second);
    merged.SortMergedEvents();
    std::ostringstream out;
    merged.WriteFlightJson(out);
    merged.WriteJson(out);
    return out.str();
  };
  EXPECT_EQ(merge(shard_a, shard_b), merge(shard_b, shard_a));

  // The merged window is a sink: it keeps all four events.
  SpanTracer merged(4);
  merged.AbsorbShard(shard_a);
  merged.AbsorbShard(shard_b);
  merged.SortMergedEvents();
  const std::vector<TraceEvent> events = merged.RecentInstants();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 1e6);
  EXPECT_EQ(events[0].cell(), 0);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 2e6);
  EXPECT_EQ(events[1].cell(), 1);
  // (t_s, cell, seq) tie at t=3.0: cell 0 before cell 1.
  EXPECT_DOUBLE_EQ(events[2].ts_us, 3e6);
  EXPECT_EQ(events[2].cell(), 0);
  EXPECT_DOUBLE_EQ(events[3].ts_us, 3e6);
  EXPECT_EQ(events[3].cell(), 1);
  EXPECT_EQ(merged.recorded(), 4u);
}

TEST(FlightWindow, EarliestTriggerWinsAcrossShards) {
  SpanTracer shard_a(4);
  shard_a.set_default_pid(1);
  shard_a.TriggerSnapshot("late_alarm", 5.0);
  SpanTracer shard_b(4);
  shard_b.set_default_pid(2);
  shard_b.TriggerSnapshot("early_alarm", 2.0);

  SpanTracer merged(4);
  merged.AbsorbShard(shard_a);
  merged.AbsorbShard(shard_b);
  EXPECT_TRUE(merged.triggered());
  EXPECT_EQ(merged.trigger_reason(), "early_alarm");
  EXPECT_DOUBLE_EQ(merged.trigger_t_s(), 2.0);
}

TEST(FlightWindow, CollectEventsSinceWalksAWrappedWindowOldestFirst) {
  SpanTracer tracer(4);
  for (int i = 0; i < 6; ++i) Fact(tracer, static_cast<double>(i), "x");
  std::vector<TraceEvent> out;
  EXPECT_EQ(tracer.CollectEventsSince(0, &out), 6u);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].seq, i + 2);
  out.clear();
  EXPECT_EQ(tracer.CollectEventsSince(5, &out), 6u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 5u);
}

// --- Bounded mode -----------------------------------------------------------

TEST(BoundedTracer, HoldsNoSpansOrCountersAndReadsNoClock) {
  SpanTracer tracer(8, /*timeline=*/false);
  bool clock_read = false;
  tracer.SetClock([&clock_read] {
    clock_read = true;
    return 0.0;
  });
  {
    SpanScope span(&tracer, kLaneControl, "test", "work");
    EXPECT_FALSE(span.enabled());
  }
  tracer.CompleteSpan(kLaneControl, "test", "span", 1.0, 2.0);
  tracer.Counter(kLaneMac, "counter", 1.0, 3.0);
  Fact(tracer, 1.0, "rung_change", 7, -1, 2.0);
  EXPECT_FALSE(clock_read);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(TimelineOf(&tracer), nullptr);
  ASSERT_EQ(tracer.RecentInstants().size(), 1u);
  EXPECT_STREQ(tracer.RecentInstants()[0].name, "rung_change");
}

TEST(BoundedTracer, ScenarioRunKeepsOnlyTheFlightWindow) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 20.0;
  config.oneapi.deterministic_timing = true;
  SpanTracer bounded(64, /*timeline=*/false);
  config.span_trace = &bounded;
  RunScenario(config);
  EXPECT_TRUE(bounded.events().empty());
  const std::vector<TraceEvent> recent = bounded.RecentInstants();
  ASSERT_FALSE(recent.empty());
  EXPECT_LE(recent.size(), 64u);
  for (const TraceEvent& e : recent) {
    EXPECT_EQ(e.ph, 'i');
    EXPECT_EQ(e.cell(), 0);
  }
  EXPECT_EQ(bounded.recorded(), bounded.dropped() + recent.size());
}

// --- One record per fact ----------------------------------------------------

TEST(EventLog, TestbedRunRecordsEachFactOnce) {
  // A starved cell (6 RBs) with two conventional players beside the
  // FLARE ones, so the run has both rung changes and stalls.
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.num_rbs = 6;
  config.n_conventional = 2;
  config.oneapi.deterministic_timing = true;
  SpanTracer spans;
  QoeAnalytics qoe;
  config.span_trace = &spans;
  config.qoe = &qoe;
  RunScenario(config);

  std::uint64_t rung_changes = 0;
  std::uint64_t stall_begins = 0;
  std::set<std::tuple<int, double, std::string, FlowId, int>> seen;
  for (const TraceEvent& e : spans.events()) {
    if (e.ph != 'i') continue;
    const std::string name = e.name;
    rung_changes += name == "rung_change" ? 1 : 0;
    stall_begins += name == "stall_begin" ? 1 : 0;
    EXPECT_TRUE(seen.emplace(e.pid, e.ts_us, name, e.flow, e.client).second)
        << "duplicate instant " << name << " at " << e.ts_us;
  }

  std::ostringstream out;
  qoe.WriteJson(out);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(out.str(), &doc));
  const JsonValue* causes = doc.FindPath({"summary", "rung_change_causes"});
  ASSERT_NE(causes, nullptr);
  double qoe_rung_changes = 0.0;
  for (const auto& [cause, count] : causes->members()) {
    qoe_rung_changes += count.AsNumber();
  }
  EXPECT_GT(rung_changes, 0u);
  EXPECT_EQ(static_cast<double>(rung_changes), qoe_rung_changes);
  EXPECT_GT(stall_begins, 0u);
  EXPECT_EQ(stall_begins, qoe.LiveSummary().stalls);
}

// --- Slow-request exemplars -------------------------------------------------

TEST(EventLog, SlowRequestsReachTheFlightDumpPastTheEventCap) {
  MetricsRegistry registry;
  std::mutex registry_mu;
  RequestTracerOptions options;
  options.max_events = 16;  // two requests' worth of spans
  options.exemplar_k = 2;
  options.exemplar_window_ticks = 1;
  RequestTracer tracer(&registry, &registry_mu, options);

  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    RequestTiming timing;
    timing.ctx.trace_id = static_cast<std::uint64_t>(i + 1);
    timing.flow = static_cast<FlowId>(i + 1);
    timing.start_us = 100.0 * i;
    timing.send_us = timing.start_us + 40.0;
    timing.cause = "steady";
    tracer.OnAssignmentQueued(timing, /*fd=*/3, /*drain_watermark=*/i + 1);
    tracer.OnConnFlushed(3, static_cast<std::uint64_t>(i + 1),
                         timing.start_us + 50.0 + i);
    tracer.EndTick(timing.start_us, timing.start_us, 1.0, 2.0, 1, 1);
  }
  const MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_GT(metrics.counters.at("svc.oneapi.trace.dropped_events"), 0u);

  const std::string path = ::testing::TempDir() + "/slow_request_flight.json";
  ASSERT_TRUE(tracer.DumpFlight(path));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJsonFile(path, &doc, &error)) << error;
  int slow_requests = 0;
  for (const JsonValue& event : doc.Find("recent")->items()) {
    if (event.Find("kind")->AsString() != "slow_request") continue;
    ++slow_requests;
    EXPECT_NE(event.FindPath({"args", "queue_wait_us"}), nullptr);
    EXPECT_NE(event.FindPath({"args", "total_us"}), nullptr);
  }
  // Every window flushed its one exemplar, the capped ones included.
  EXPECT_EQ(slow_requests, kRequests);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flare
