// OneAPI wire messages.
//
// The prototype exchanges three message kinds over the operator's
// telecommunication-API surface (OMA OneAPI profile, Section III-A):
//   * ClientInfo        — UE plugin -> server, at session start/updates
//   * RateAssignment    — server -> UE plugin & PCEF, each BAI
//   * FlowStatsReport   — eNodeB Communication Module -> server
// This module provides a compact key=value line codec for them (the
// paper leaves the concrete protocol to future standardization; any
// self-describing encoding exercises the same path). Decoding is strict:
// Decode* returns nullopt on malformed input rather than guessing. Every
// number must be finite; flow ids, rung indices, byte and RB counts must
// be whole numbers that fit their field (and a flow id below
// kInvalidFlow); a ladder must be positive and strictly ascending, and
// disclosed utility parameters (beta, theta) positive. Whatever decodes
// is therefore safe to hand to the optimizer.
#pragma once

#include <optional>
#include <string>

#include "lte/stats_reporter.h"
#include "net/flare_plugin.h"

namespace flare {

/// Server -> plugin/PCEF bitrate decision for one flow.
struct RateAssignmentMsg {
  FlowId flow = kInvalidFlow;
  int level = 0;
  double rate_bps = 0.0;
  double gbr_bps = 0.0;
};

/// Append `value` so that it decodes back to exactly that double: in the
/// `%.6g` form whenever that is exact, so such frames stay byte-identical
/// with peers that always send `%.6g`, and otherwise with the 17
/// significant digits (`%.17g`) that always round-trip (whole numbers
/// below 10^17 then print with all their digits).
void AppendExact(double value, std::string* out);

// Each Append* writes one message onto the end of `out` (no allocation
// once `out` has the capacity); Encode* returns it as a fresh string.
// Keys are written in ascending order.
void AppendClientInfo(const ClientInfo& info, std::string* out);
std::string EncodeClientInfo(const ClientInfo& info);
std::optional<ClientInfo> DecodeClientInfo(const std::string& wire);

void AppendRateAssignment(const RateAssignmentMsg& msg, std::string* out);
std::string EncodeRateAssignment(const RateAssignmentMsg& msg);
std::optional<RateAssignmentMsg> DecodeRateAssignment(
    const std::string& wire);

void AppendStatsReport(const FlowStatsReport& report, std::string* out);
std::string EncodeStatsReport(const FlowStatsReport& report);
std::optional<FlowStatsReport> DecodeStatsReport(const std::string& wire);

}  // namespace flare
