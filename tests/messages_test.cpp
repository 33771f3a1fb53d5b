// Tests for the OneAPI wire-message codec: round trips, field coverage,
// and strict rejection of malformed input (including fuzz-ish mutations).
// The FrameInterop section pins the trace-context extension's
// compatibility contract: a new peer without tracing emits bytes an old
// peer parses identically, and an old peer's bytes parse unchanged here.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/messages.h"
#include "svc/frame.h"
#include "util/rng.h"

namespace flare {
namespace {

ClientInfo SampleInfo() {
  ClientInfo info;
  info.flow = 42;
  info.ladder_bps = {100e3, 250e3, 500e3, 1000e3};
  info.max_level = 2;
  VideoUtilityParams utility;
  utility.beta = 12.0;
  utility.theta_bps = 0.3e6;
  info.utility = utility;
  info.skimming = true;
  return info;
}

TEST(Messages, ClientInfoRoundTrip) {
  const ClientInfo original = SampleInfo();
  const auto decoded = DecodeClientInfo(EncodeClientInfo(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow, original.flow);
  EXPECT_EQ(decoded->ladder_bps, original.ladder_bps);
  EXPECT_EQ(decoded->max_level, original.max_level);
  ASSERT_TRUE(decoded->utility.has_value());
  EXPECT_DOUBLE_EQ(decoded->utility->beta, 12.0);
  EXPECT_DOUBLE_EQ(decoded->utility->theta_bps, 0.3e6);
  EXPECT_TRUE(decoded->skimming);
}

TEST(Messages, ClientInfoOptionalFieldsAbsent) {
  ClientInfo info;
  info.flow = 7;
  info.ladder_bps = {200e3};
  const auto decoded = DecodeClientInfo(EncodeClientInfo(info));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->max_level.has_value());
  EXPECT_FALSE(decoded->utility.has_value());
  EXPECT_FALSE(decoded->skimming);
}

TEST(Messages, ClientInfoRejectsMalformed) {
  EXPECT_FALSE(DecodeClientInfo("").has_value());
  EXPECT_FALSE(DecodeClientInfo("garbage").has_value());
  EXPECT_FALSE(DecodeClientInfo("type=rate_assignment;flow=1").has_value());
  EXPECT_FALSE(DecodeClientInfo("type=client_info;flow=1").has_value());
  EXPECT_FALSE(
      DecodeClientInfo("type=client_info;flow=x;ladder=100").has_value());
  EXPECT_FALSE(
      DecodeClientInfo("type=client_info;flow=1;ladder=10,abc")
          .has_value());
  EXPECT_FALSE(DecodeClientInfo("=1;type=client_info").has_value());
  // Ladders the optimizer would reject: descending, repeated, zero,
  // negative, non-finite.
  for (const char* ladder :
       {"500000,100000", "100,100", "0,100", "-5,100", "nan", "100,inf"}) {
    EXPECT_FALSE(DecodeClientInfo(std::string("type=client_info;flow=1;"
                                              "ladder=") +
                                  ladder)
                     .has_value())
        << ladder;
  }
  // Utility parameters must be finite and positive, and come as a pair.
  for (const char* utility :
       {"beta=0;theta=1", "beta=-1;theta=1", "beta=1;theta=0",
        "beta=nan;theta=1", "beta=1;theta=inf", "beta=1"}) {
    EXPECT_FALSE(DecodeClientInfo(std::string("type=client_info;flow=1;"
                                              "ladder=100,200;") +
                                  utility)
                     .has_value())
        << utility;
  }
  // Flow ids and rung caps must be whole and fit their field;
  // kInvalidFlow itself is reserved.
  for (const char* field :
       {"flow=4294967295", "flow=5e9", "flow=-1", "flow=1.5", "flow=nan"}) {
    EXPECT_FALSE(DecodeClientInfo(std::string("type=client_info;ladder=100;") +
                                  field)
                     .has_value())
        << field;
  }
  for (const char* cap : {"max_level=-1", "max_level=1.5", "max_level=3e9",
                          "max_level=inf", "max_level=x"}) {
    EXPECT_FALSE(DecodeClientInfo(std::string("type=client_info;flow=1;"
                                              "ladder=100;") +
                                  cap)
                     .has_value())
        << cap;
  }
  EXPECT_TRUE(DecodeClientInfo("type=client_info;flow=4294967294;ladder=100")
                  .has_value());
}

TEST(Messages, RateAssignmentRoundTrip) {
  RateAssignmentMsg msg;
  msg.flow = 9;
  msg.level = 3;
  msg.rate_bps = 790e3;
  msg.gbr_bps = 869e3;
  const auto decoded = DecodeRateAssignment(EncodeRateAssignment(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow, msg.flow);
  EXPECT_EQ(decoded->level, msg.level);
  EXPECT_DOUBLE_EQ(decoded->rate_bps, msg.rate_bps);
  EXPECT_DOUBLE_EQ(decoded->gbr_bps, msg.gbr_bps);
}

TEST(Messages, RateAssignmentRejectsMissingFields) {
  EXPECT_FALSE(DecodeRateAssignment("type=rate_assignment;flow=1;level=2")
                   .has_value());
  EXPECT_FALSE(DecodeRateAssignment("type=client_info;flow=1").has_value());
  for (const char* field :
       {"flow=4294967295;level=1;rate=1;gbr=1", "flow=1;level=-1;rate=1;gbr=1",
        "flow=1;level=0.5;rate=1;gbr=1", "flow=1;level=1;rate=nan;gbr=1",
        "flow=1;level=1;rate=1;gbr=inf"}) {
    EXPECT_FALSE(
        DecodeRateAssignment(std::string("type=rate_assignment;") + field)
            .has_value())
        << field;
  }
}

TEST(Messages, StatsReportRoundTrip) {
  FlowStatsReport report;
  report.flow = 11;
  report.type = FlowType::kVideo;
  report.tx_bytes = 123456;
  report.rbs = 999;
  report.throughput_bps = 1.23e6;
  report.rb_utilization = 0.42;
  const auto decoded = DecodeStatsReport(EncodeStatsReport(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow, report.flow);
  EXPECT_EQ(decoded->type, FlowType::kVideo);
  EXPECT_EQ(decoded->tx_bytes, report.tx_bytes);
  EXPECT_EQ(decoded->rbs, report.rbs);
  EXPECT_DOUBLE_EQ(decoded->throughput_bps, report.throughput_bps);
  EXPECT_DOUBLE_EQ(decoded->rb_utilization, report.rb_utilization);
}

// Whole numbers above six significant digits used to go out in %.6g form
// and come back rounded: flow 1000001 decoded as 1000000 (two clients on
// one id), tx_bytes 2512345 as 2512340, rung 1234567 as 1234570.
// Every numeric field decodes to the double that was encoded, including
// the fractional ones (%.6g would send gbr 1358023.7 as 1358020).
TEST(Messages, NumericFieldsRoundTripExactly) {
  ClientInfo info;
  info.flow = 1000001;
  info.ladder_bps = {250e3, 1234567.0, 9007199254740991.0};  // 2^53 - 1
  info.max_level = 2000000001;
  VideoUtilityParams utility;
  utility.beta = 0.1234567;
  utility.theta_bps = 1234567.89;
  info.utility = utility;
  const auto client = DecodeClientInfo(EncodeClientInfo(info));
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->flow, 1000001u);
  EXPECT_EQ(client->ladder_bps, info.ladder_bps);
  EXPECT_EQ(client->max_level, 2000000001);
  ASSERT_TRUE(client->utility.has_value());
  EXPECT_EQ(client->utility->beta, utility.beta);
  EXPECT_EQ(client->utility->theta_bps, utility.theta_bps);

  RateAssignmentMsg msg;
  msg.flow = 4294967294u;  // largest valid flow id
  msg.level = 1234567;
  msg.rate_bps = 1234567.0;
  msg.gbr_bps = 1358023.7;
  const auto assignment = DecodeRateAssignment(EncodeRateAssignment(msg));
  ASSERT_TRUE(assignment.has_value());
  EXPECT_EQ(assignment->flow, msg.flow);
  EXPECT_EQ(assignment->level, msg.level);
  EXPECT_EQ(assignment->rate_bps, msg.rate_bps);
  EXPECT_EQ(assignment->gbr_bps, msg.gbr_bps);
  // A GBR from the headroom product, as BaiCore computes it.
  msg.gbr_bps = 1.1 * 1234567.0;
  EXPECT_EQ(DecodeRateAssignment(EncodeRateAssignment(msg))->gbr_bps,
            msg.gbr_bps);

  FlowStatsReport report;
  report.flow = 1000001;
  report.tx_bytes = 2512345;
  report.rbs = 98765432;
  report.throughput_bps = 1234567.0;
  report.rb_utilization = 0.123456789;
  const auto stats = DecodeStatsReport(EncodeStatsReport(report));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->flow, report.flow);
  EXPECT_EQ(stats->tx_bytes, report.tx_bytes);
  EXPECT_EQ(stats->rbs, report.rbs);
  EXPECT_EQ(stats->throughput_bps, report.throughput_bps);
  EXPECT_EQ(stats->rb_utilization, report.rb_utilization);
}

// Values %.6g already printed exactly keep their bytes, so frames from
// before the exact encoding and after it stay byte-identical.
TEST(Messages, ShortWholeNumbersKeepTheirBytes) {
  RateAssignmentMsg msg;
  msg.flow = 1000000;
  msg.level = 3;
  msg.rate_bps = 2e6;
  msg.gbr_bps = 2.2e6;
  EXPECT_EQ(EncodeRateAssignment(msg),
            "flow=1e+06;gbr=2.2e+06;level=3;rate=2e+06;type=rate_assignment");

  FlowStatsReport report;
  report.flow = 12;
  report.tx_bytes = 2500000;
  report.rbs = 999;
  report.throughput_bps = 1.5e6;
  report.rb_utilization = 0.25;
  EXPECT_EQ(EncodeStatsReport(report),
            "class=data;flow=12;rb_util=0.25;rbs=999;tput=1.5e+06;"
            "tx_bytes=2.5e+06;type=stats_report");

  ClientInfo info;
  info.flow = 1;
  info.ladder_bps = {0.5, 100e3, 1234567.0};
  EXPECT_EQ(EncodeClientInfo(info),
            "flow=1;ladder=0.5,100000,1234567;type=client_info");
}

// A flow id just past a power of ten is a distinct client, not a
// duplicate of the rounded id.
TEST(Messages, DistinctLargeFlowIdsStayDistinct) {
  for (FlowId flow : {1000000u, 1000001u, 1000002u}) {
    ClientInfo info;
    info.flow = flow;
    info.ladder_bps = {100e3};
    const auto decoded = DecodeClientInfo(EncodeClientInfo(info));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->flow, flow);
  }
}

TEST(Messages, StatsReportDataClass) {
  FlowStatsReport report;
  report.flow = 1;
  report.type = FlowType::kData;
  const auto decoded = DecodeStatsReport(EncodeStatsReport(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FlowType::kData);
}

TEST(Messages, StatsReportRejectsBadClass) {
  EXPECT_FALSE(
      DecodeStatsReport("type=stats_report;flow=1;class=voice;"
                        "tx_bytes=1;rbs=1;tput=1;rb_util=0.1")
          .has_value());
  // Counts must be whole and fit uint64; a NaN sample would otherwise
  // poison the session's EWMA for good.
  for (const char* field :
       {"tx_bytes=nan;rbs=1", "tx_bytes=-1;rbs=1", "tx_bytes=1.5;rbs=1",
        "tx_bytes=1e20;rbs=1", "tx_bytes=1;rbs=inf", "tx_bytes=1;rbs=-8",
        "tx_bytes=1;rbs=0.25"}) {
    EXPECT_FALSE(DecodeStatsReport(std::string("type=stats_report;flow=1;"
                                               "class=video;tput=1;"
                                               "rb_util=0.1;") +
                                   field)
                     .has_value())
        << field;
  }
  EXPECT_FALSE(DecodeStatsReport("type=stats_report;flow=4294967295;"
                                 "class=video;tx_bytes=1;rbs=1;tput=1;"
                                 "rb_util=0.1")
                   .has_value());
  EXPECT_FALSE(DecodeStatsReport("type=stats_report;flow=1;class=video;"
                                 "tx_bytes=1;rbs=1;tput=nan;rb_util=0.1")
                   .has_value());
}

TEST(Messages, MutatedWiresNeverCrashAndRarelyParse) {
  // Fuzz-ish: random mutations of a valid message must either decode to
  // something or be rejected — never crash or throw.
  const std::string valid = EncodeClientInfo(SampleInfo());
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 5));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(rng.UniformInt(32, 126)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    EXPECT_NO_THROW({
      const auto decoded = DecodeClientInfo(mutated);
      if (decoded) {
        // Whatever parsed must still be structurally sane.
        EXPECT_FALSE(decoded->ladder_bps.empty());
      }
    });
  }
}

TEST(Messages, RandomizedRoundTripAllTypes) {
  // Round-trip fuzz: random field values for every message type must
  // survive encode → decode with integer fields exact. Doubles go
  // through %.6g formatting, so draw them from a grid that the format
  // preserves exactly (integers of at most 6 digits).
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    ClientInfo info;
    info.flow = static_cast<FlowId>(rng.UniformInt(0, 999999));
    // Ladders must be strictly ascending: random positive steps.
    const int levels = static_cast<int>(rng.UniformInt(1, 8));
    double rung = 0.0;
    for (int i = 0; i < levels; ++i) {
      rung += static_cast<double>(rng.UniformInt(1, 124999));
      info.ladder_bps.push_back(rung);
    }
    if (rng.UniformInt(0, 1) == 1) {
      info.max_level = static_cast<int>(
          rng.UniformInt(0, static_cast<std::int64_t>(levels) - 1));
    }
    if (rng.UniformInt(0, 1) == 1) {
      VideoUtilityParams utility;
      utility.beta = static_cast<double>(rng.UniformInt(1, 100));
      utility.theta_bps = static_cast<double>(rng.UniformInt(1, 999999));
      info.utility = utility;
    }
    info.skimming = rng.UniformInt(0, 1) == 1;
    const auto info_rt = DecodeClientInfo(EncodeClientInfo(info));
    ASSERT_TRUE(info_rt.has_value());
    EXPECT_EQ(info_rt->flow, info.flow);
    EXPECT_EQ(info_rt->ladder_bps, info.ladder_bps);
    EXPECT_EQ(info_rt->max_level, info.max_level);
    EXPECT_EQ(info_rt->utility.has_value(), info.utility.has_value());
    EXPECT_EQ(info_rt->skimming, info.skimming);

    RateAssignmentMsg assignment;
    assignment.flow = static_cast<FlowId>(rng.UniformInt(0, 999999));
    assignment.level = static_cast<int>(rng.UniformInt(0, 16));
    assignment.rate_bps = static_cast<double>(rng.UniformInt(0, 999999));
    assignment.gbr_bps = static_cast<double>(rng.UniformInt(0, 999999));
    const auto assignment_rt =
        DecodeRateAssignment(EncodeRateAssignment(assignment));
    ASSERT_TRUE(assignment_rt.has_value());
    EXPECT_EQ(assignment_rt->flow, assignment.flow);
    EXPECT_EQ(assignment_rt->level, assignment.level);
    EXPECT_DOUBLE_EQ(assignment_rt->rate_bps, assignment.rate_bps);
    EXPECT_DOUBLE_EQ(assignment_rt->gbr_bps, assignment.gbr_bps);

    FlowStatsReport stats;
    stats.flow = static_cast<FlowId>(rng.UniformInt(0, 999999));
    stats.type = rng.UniformInt(0, 1) == 1 ? FlowType::kVideo
                                           : FlowType::kData;
    stats.tx_bytes = static_cast<std::uint64_t>(rng.UniformInt(0, 999999));
    stats.rbs = static_cast<std::uint64_t>(rng.UniformInt(0, 999999));
    stats.throughput_bps = static_cast<double>(rng.UniformInt(0, 999999));
    stats.rb_utilization = 0.0;
    const auto stats_rt = DecodeStatsReport(EncodeStatsReport(stats));
    ASSERT_TRUE(stats_rt.has_value());
    EXPECT_EQ(stats_rt->flow, stats.flow);
    EXPECT_EQ(stats_rt->type, stats.type);
    EXPECT_EQ(stats_rt->tx_bytes, stats.tx_bytes);
    EXPECT_EQ(stats_rt->rbs, stats.rbs);
  }
}

TEST(Messages, TruncationsNeverCrash) {
  // Every prefix of a valid encoding must decode to nullopt or to a
  // structurally valid message — never crash. (Some prefixes happen to
  // end exactly on a field boundary and legitimately still parse.)
  const std::string infos = EncodeClientInfo(SampleInfo());
  RateAssignmentMsg assignment;
  assignment.flow = 3;
  assignment.level = 1;
  assignment.rate_bps = 250e3;
  assignment.gbr_bps = 275e3;
  const std::string rates = EncodeRateAssignment(assignment);
  FlowStatsReport stats;
  stats.flow = 5;
  stats.type = FlowType::kVideo;
  stats.tx_bytes = 999;
  stats.rbs = 8;
  const std::string reports = EncodeStatsReport(stats);
  for (std::size_t len = 0; len < infos.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeClientInfo(infos.substr(0, len)));
  }
  for (std::size_t len = 0; len < rates.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeRateAssignment(rates.substr(0, len)));
  }
  for (std::size_t len = 0; len < reports.size(); ++len) {
    EXPECT_NO_THROW((void)DecodeStatsReport(reports.substr(0, len)));
  }
}

TEST(Messages, GarbageAcrossAllDecodersNeverCrashes) {
  // Pure-random strings (printable + separators the codec cares about)
  // against every decoder: no crash, and with overwhelming likelihood
  // no parse.
  Rng rng(777);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=;,.-+eE ";
  int parsed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    std::string wire;
    for (int i = 0; i < len; ++i) {
      wire.push_back(alphabet[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
    }
    EXPECT_NO_THROW({
      if (DecodeClientInfo(wire)) ++parsed;
      if (DecodeRateAssignment(wire)) ++parsed;
      if (DecodeStatsReport(wire)) ++parsed;
    });
  }
  // A random string should essentially never spell out a full typed
  // key=value message.
  EXPECT_EQ(parsed, 0);
}

// ---------------------------------------------------------------------
// Frame-layer interop: the trace-context extension vs. legacy peers
// ---------------------------------------------------------------------

/// The pre-extension wire format, built by hand: u32 LE length (type +
/// payload), raw type byte, payload. What an old peer sends and expects.
std::string LegacyWire(std::uint8_t type, const std::string& payload) {
  std::string wire;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size()) + 1;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  wire.push_back(static_cast<char>(type));
  wire += payload;
  return wire;
}

std::string RandomPayload(Rng* rng, int max_len) {
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=;,.-+ ";
  const int len = static_cast<int>(rng->UniformInt(0, max_len));
  std::string payload;
  for (int i = 0; i < len; ++i) {
    payload.push_back(alphabet[static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
  }
  return payload;
}

TEST(FrameInterop, OldToNewFramesParseUnchanged) {
  // Direction 1: bytes from an old peer. Every legacy frame must parse
  // byte-for-byte as before the extension — no trace, no unknown_ext —
  // and the new encoder without a trace context must emit exactly those
  // legacy bytes (so old peers in turn parse *us*).
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const auto type =
        static_cast<FrameType>(rng.UniformInt(1, 6));
    const std::string payload = RandomPayload(&rng, 64);
    const std::string legacy =
        LegacyWire(static_cast<std::uint8_t>(type), payload);
    EXPECT_EQ(EncodeFrame(type, payload), legacy);
    EXPECT_EQ(EncodeFrame(type, payload, nullptr), legacy);

    std::string buffer = legacy;
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(frame.trace.has_value());
    EXPECT_FALSE(frame.unknown_ext);
  }
}

TEST(FrameInterop, NewToNewTraceContextRoundTrips) {
  // Direction 2: extension-bearing frames between new peers. The trailer
  // must round-trip every field exactly, never leak into the payload,
  // and visibly set the ext bit (which is what makes an *old* strict
  // parser reject the frame instead of silently mis-parsing it — tracing
  // is opt-in per frame precisely so it is only sent to new daemons).
  Rng rng(32);
  for (int trial = 0; trial < 300; ++trial) {
    TraceContext ctx;
    ctx.trace_id =
        (static_cast<std::uint64_t>(rng.UniformInt(0, 0x7fffffff)) << 32) |
        static_cast<std::uint64_t>(rng.UniformInt(0, 0x7fffffff));
    ctx.client_send_us = rng.UniformInt(0, 1'000'000'000);
    if (rng.UniformInt(0, 1) == 1) {
      ctx.server_recv_us = rng.UniformInt(1, 1'000'000'000);
      ctx.server_send_us = rng.UniformInt(1, 1'000'000'000);
    }
    const auto type = static_cast<FrameType>(rng.UniformInt(1, 6));
    const std::string payload = RandomPayload(&rng, 64);
    const std::string wire = EncodeFrame(type, payload, &ctx);
    ASSERT_GT(wire.size(), 4u);
    EXPECT_NE(static_cast<std::uint8_t>(wire[4]) & kFrameTraceExtBit, 0);

    std::string buffer = wire;
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(frame.unknown_ext);
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, ctx.trace_id);
    EXPECT_EQ(frame.trace->client_send_us, ctx.client_send_us);
    EXPECT_EQ(frame.trace->server_recv_us, ctx.server_recv_us);
    EXPECT_EQ(frame.trace->server_send_us, ctx.server_send_us);
  }
}

TEST(FrameInterop, DecoderAsymmetryStrictLegacyTolerantExt) {
  // Legacy frames keep today's strictness: trailing bytes after a text
  // payload stay part of the payload, and anything that is not a clean
  // key=value field (a NUL-introduced trailer, a bare token) still makes
  // the message codec reject the whole payload.
  {
    FlowStatsReport report;
    report.flow = 4;
    report.type = FlowType::kVideo;
    report.tx_bytes = 100;
    report.rbs = 8;
    const std::string payload = EncodeStatsReport(report);
    for (const std::string& trailer :
         {std::string(";trailing-no-equals"),
          std::string(1, '\0') + "trace=1;ts=2"}) {
      std::string buffer = LegacyWire(2, payload + trailer);
      Frame frame;
      ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
      EXPECT_FALSE(frame.trace.has_value());
      EXPECT_FALSE(DecodeStatsReport(frame.payload).has_value());
    }
  }
  // Ext frames tolerate unknown keys... (flagged, not fatal)
  {
    const std::string body = std::string("payload") + '\0' +
                             "trace=00000000000000ff;ts=5;future=1";
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, body);
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    EXPECT_EQ(frame.payload, "payload");
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, 0xffu);
    EXPECT_EQ(frame.trace->client_send_us, 5);
    EXPECT_TRUE(frame.unknown_ext);
  }
  // ...and bytes after a second NUL (a future binary section).
  {
    const std::string body = std::string("p") + '\0' +
                             "trace=1;ts=2" + '\0' + "binary-blob";
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, body);
    Frame frame;
    ASSERT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kFrame);
    ASSERT_TRUE(frame.trace.has_value());
    EXPECT_EQ(frame.trace->trace_id, 1u);
    EXPECT_TRUE(frame.unknown_ext);
  }
  // Known ext keys stay strict: malformed values poison the stream.
  for (const std::string& bad :
       {std::string("trace=xyz;ts=5"), std::string("trace=1;ts=abc"),
        std::string("trace=11112222333344445;ts=5")}) {
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit,
                                    std::string("p") + '\0' + bad);
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError)
        << "accepted malformed ext: " << bad;
  }
  // An ext-flagged frame without the NUL separator is malformed.
  {
    std::string buffer = LegacyWire(2 | kFrameTraceExtBit, "no-separator");
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError);
  }
  // The ext bit never rescues an unknown base type.
  {
    std::string buffer = LegacyWire(0x7f | kFrameTraceExtBit,
                                    std::string("p") + '\0' + "trace=1;ts=2");
    Frame frame;
    EXPECT_EQ(ParseFrame(&buffer, &frame), FrameParseStatus::kError);
  }
}

TEST(FrameInterop, FuzzedExtTrailersNeverCrash) {
  // Random bytes in the trailer region: parse must return kFrame or
  // kError, never crash; whenever it accepts, known fields are sane.
  Rng rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    std::string body = RandomPayload(&rng, 16);
    body.push_back('\0');
    const int len = static_cast<int>(rng.UniformInt(0, 48));
    for (int i = 0; i < len; ++i) {
      body.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    std::string buffer = LegacyWire(
        static_cast<std::uint8_t>(rng.UniformInt(1, 6)) | kFrameTraceExtBit,
        body);
    Frame frame;
    const FrameParseStatus status = ParseFrame(&buffer, &frame);
    if (status == FrameParseStatus::kFrame) {
      EXPECT_TRUE(buffer.empty());
    } else {
      EXPECT_EQ(status, FrameParseStatus::kError);
    }
  }
}


// ---------------------------------------------------------------------
// Wire identity: the in-place encoders against the map-based ones they
// replaced. The oracle below is the earlier encoder kept verbatim in
// spirit: a std::map of string fields joined by an ostringstream, each
// number printed with snprintf("%.6g") unless strtod says that loses it,
// then "%.17g". Every byte the new encoders write must match it.
// ---------------------------------------------------------------------

namespace oracle {

using Fields = std::map<std::string, std::string>;

std::string Join(const Fields& fields) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out << ';';
    out << key << '=' << value;
    first = false;
  }
  return out.str();
}

std::string FormatExact(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.6g", value);
  if (std::strtod(text, nullptr) == value) return text;
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string EncodeClientInfo(const ClientInfo& info) {
  Fields fields;
  fields["type"] = "client_info";
  fields["flow"] = FormatExact(info.flow);
  std::ostringstream ladder;
  for (std::size_t i = 0; i < info.ladder_bps.size(); ++i) {
    if (i > 0) ladder << ',';
    ladder << FormatExact(info.ladder_bps[i]);
  }
  fields["ladder"] = ladder.str();
  if (info.max_level) fields["max_level"] = FormatExact(*info.max_level);
  if (info.utility) {
    fields["beta"] = FormatExact(info.utility->beta);
    fields["theta"] = FormatExact(info.utility->theta_bps);
  }
  if (info.skimming) fields["skimming"] = "1";
  return Join(fields);
}

std::string EncodeRateAssignment(const RateAssignmentMsg& msg) {
  Fields fields;
  fields["type"] = "rate_assignment";
  fields["flow"] = FormatExact(msg.flow);
  fields["level"] = FormatExact(msg.level);
  fields["rate"] = FormatExact(msg.rate_bps);
  fields["gbr"] = FormatExact(msg.gbr_bps);
  return Join(fields);
}

std::string EncodeStatsReport(const FlowStatsReport& report) {
  Fields fields;
  fields["type"] = "stats_report";
  fields["flow"] = FormatExact(report.flow);
  fields["class"] = report.type == FlowType::kVideo ? "video" : "data";
  fields["tx_bytes"] = FormatExact(static_cast<double>(report.tx_bytes));
  fields["rbs"] = FormatExact(static_cast<double>(report.rbs));
  fields["tput"] = FormatExact(report.throughput_bps);
  fields["rb_util"] = FormatExact(report.rb_utilization);
  return Join(fields);
}

std::string EncodeFrame(FrameType type, const std::string& payload,
                        const TraceContext* trace) {
  std::string body = payload;
  if (trace != nullptr) {
    char id[17];
    std::snprintf(id, sizeof(id), "%016llx",
                  static_cast<unsigned long long>(trace->trace_id));
    body.push_back('\0');
    body += "trace=" + std::string(id) +
            ";ts=" + std::to_string(trace->client_send_us);
    if (trace->server_recv_us != 0 || trace->server_send_us != 0) {
      body += ";srx=" + std::to_string(trace->server_recv_us) +
              ";stx=" + std::to_string(trace->server_send_us);
    }
  }
  const std::uint32_t length = static_cast<std::uint32_t>(body.size()) + 1;
  std::string out;
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  out.push_back(static_cast<char>(static_cast<std::uint8_t>(type) |
                                  (trace != nullptr ? kFrameTraceExtBit : 0)));
  return out + body;
}

}  // namespace oracle

/// The seeded corpus: random finite bit patterns, whole numbers up to and
/// past 1e17, ladder rates and their 1.1x GBR headroom, subnormals, and
/// edge values (±0, the extremes, infinities, NaN).
std::vector<double> WireCorpus(std::size_t size) {
  Rng rng(2017);
  std::vector<double> corpus = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon(),
                                1e17,
                                1e17 + 16.0,
                                9007199254740993.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> ladder_kbps = {100,  150,  200,  250,  300,  400,
                                           500,  700,  900,  1200, 1500, 2000,
                                           2500, 3000, 4000, 5000};
  auto bits = [&] { return rng.engine()(); };
  while (corpus.size() < size) {
    switch (corpus.size() % 5) {
      case 0: {  // any finite bit pattern
        const double value = std::bit_cast<double>(bits());
        if (std::isfinite(value)) corpus.push_back(value);
        break;
      }
      case 1: {  // whole numbers of 1 to 20 digits
        const int digits = static_cast<int>(rng.UniformInt(1, 20));
        corpus.push_back(std::floor(rng.Uniform() * std::pow(10.0, digits)));
        break;
      }
      case 2: {  // ladder rates, a random kbps rate, and 1.1x of either
        const double rate =
            rng.UniformInt(0, 1) == 0
                ? ladder_kbps[static_cast<std::size_t>(rng.UniformInt(
                      0, static_cast<std::int64_t>(ladder_kbps.size()) - 1))] *
                      1e3
                : static_cast<double>(rng.UniformInt(1, 20000)) * 1e3;
        corpus.push_back(rng.UniformInt(0, 1) == 0 ? rate : rate * 1.1);
        break;
      }
      case 3: {  // subnormals of either sign
        const std::uint64_t mantissa = bits() & ((1ULL << 52) - 1);
        const std::uint64_t sign = bits() & (1ULL << 63);
        corpus.push_back(std::bit_cast<double>(mantissa | sign));
        break;
      }
      default:  // moderate magnitudes with a fraction
        corpus.push_back(rng.Uniform(-1.0, 1.0) *
                         std::pow(10.0, rng.UniformInt(-8, 12)));
        break;
    }
  }
  return corpus;
}

TEST(WireIdentity, EncodersMatchMapOracleOnSeededCorpus) {
  const std::vector<double> corpus = WireCorpus(1 << 20);
  Rng rng(2018);
  std::size_t mismatches = 0;
  auto check = [&](const std::string& got, const std::string& want) {
    if (got == want) return;
    if (++mismatches <= 5) ADD_FAILURE() << got << "\n  != " << want;
  };
  // Each round encodes ten corpus values: two in an assignment, two in a
  // stats report, six in a client info.
  for (std::size_t i = 0; i + 10 <= corpus.size(); i += 10) {
    const double* v = &corpus[i];
    // Flow ids are whole numbers below kInvalidFlow; uint64 counters run
    // to their full range.
    const auto flow = static_cast<FlowId>(
        rng.UniformInt(0, static_cast<std::int64_t>(kInvalidFlow) - 1));
    const int digits = static_cast<int>(rng.UniformInt(0, 19));
    const std::uint64_t count =
        digits == 19 ? rng.engine()()
                     : rng.engine()() % static_cast<std::uint64_t>(
                                            std::pow(10.0, digits));

    RateAssignmentMsg msg;
    msg.flow = flow;
    msg.level = static_cast<int>(rng.UniformInt(0, 2000000000));
    msg.rate_bps = v[0];
    msg.gbr_bps = v[1];
    check(EncodeRateAssignment(msg), oracle::EncodeRateAssignment(msg));

    FlowStatsReport report;
    report.flow = flow;
    report.type = i % 20 == 0 ? FlowType::kVideo : FlowType::kData;
    report.tx_bytes = count;
    report.rbs = count / 3;
    report.throughput_bps = v[2];
    report.rb_utilization = v[3];
    check(EncodeStatsReport(report), oracle::EncodeStatsReport(report));

    ClientInfo info;
    info.flow = flow;
    info.ladder_bps.assign(v + 4, v + 8);
    VideoUtilityParams utility;
    utility.beta = v[8];
    utility.theta_bps = v[9];
    info.utility = utility;
    if (i % 30 == 0) info.max_level = msg.level;
    info.skimming = i % 70 == 0;
    check(EncodeClientInfo(info), oracle::EncodeClientInfo(info));
    if (i % 70 == 0) {  // the optional fields absent, a short ladder
      info.utility.reset();
      info.ladder_bps.resize((i / 70) % 3);
      check(EncodeClientInfo(info), oracle::EncodeClientInfo(info));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(WireIdentity, AppendersKeepWhatOutAlreadyHolds) {
  RateAssignmentMsg msg;
  msg.flow = 7;
  msg.level = 2;
  msg.rate_bps = 500e3;
  msg.gbr_bps = 550e3;
  std::string out = "prefix|";
  AppendRateAssignment(msg, &out);
  EXPECT_EQ(out, "prefix|" + EncodeRateAssignment(msg));
  out.clear();
  AppendExact(0.1, &out);
  out.push_back(' ');
  AppendExact(1.0 / 3.0, &out);
  EXPECT_EQ(out, "0.1 0.33333333333333331");
}

// The frame bytes, pinned literally and against the oracle: header,
// payload, and the trace trailer with and without the server stamps.
TEST(WireIdentity, AppendFrameBytesArePinned) {
  using namespace std::string_literals;
  std::string out = "xy";
  AppendFrame(FrameType::kAssignment, "flow=1", &out);
  EXPECT_EQ(out, "xy\x07\0\0\0\x05"s "flow=1");

  TraceContext ctx;
  ctx.trace_id = 0xab;
  ctx.client_send_us = -5;
  out.clear();
  AppendFrame(FrameType::kStatsReport, "a=1", &ctx, &out);
  EXPECT_EQ(out, "\x21\0\0\0\x82"s "a=1\0trace=00000000000000ab;ts=-5"s);

  ctx.trace_id = 0xfedcba9876543210ULL;
  ctx.client_send_us = 123;
  ctx.server_recv_us = 456;
  ctx.server_send_us = 789;
  EXPECT_EQ(EncodeFrame(FrameType::kAssignment, "", &ctx),
            "\x2f\0\0\0\x85"s
            "\0trace=fedcba9876543210;ts=123;srx=456;stx=789"s);

  Rng rng(2019);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto type = static_cast<FrameType>(rng.UniformInt(1, 6));
    const std::string payload = RandomPayload(&rng, 300);
    EXPECT_EQ(EncodeFrame(type, payload),
              oracle::EncodeFrame(type, payload, nullptr));
    TraceContext trace;
    trace.trace_id = rng.engine()() >> rng.UniformInt(0, 63);
    trace.client_send_us =
        static_cast<std::int64_t>(rng.engine()()) >> rng.UniformInt(0, 63);
    if (trial % 2 == 0) {
      trace.server_recv_us = std::numeric_limits<std::int64_t>::min();
      trace.server_send_us = std::numeric_limits<std::int64_t>::max();
    }
    EXPECT_EQ(EncodeFrame(type, payload, &trace),
              oracle::EncodeFrame(type, payload, &trace));
  }
}

}  // namespace
}  // namespace flare
