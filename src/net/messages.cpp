#include "net/messages.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <system_error>
#include <vector>

namespace flare {
namespace {

// key=value fields separated by ';'. Values never contain ';' or '='
// (numbers and comma-joined number lists only). Encoders write the keys
// in ascending order, the order the decoders' map would list them.
using Fields = std::map<std::string, std::string>;

std::optional<Fields> Split(const std::string& wire) {
  Fields fields;
  std::istringstream in(wire);
  std::string token;
  while (std::getline(in, token, ';')) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (fields.empty()) return std::nullopt;
  return fields;
}

// Exclusive upper bounds for whole-number fields, so a decoded value
// always converts to its field type without overflow.
constexpr double kIntLimit = 2147483648.0;        // 2^31
constexpr double kUint64Limit = 18446744073709551616.0;  // 2^64
constexpr double kFlowLimit = static_cast<double>(kInvalidFlow);

std::optional<double> ParseFinite(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> Number(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  return ParseFinite(it->second);
}

/// A whole number in [0, limit).
std::optional<double> WholeNumber(const Fields& fields, const std::string& key,
                                  double limit) {
  const auto value = Number(fields, key);
  if (!value || *value < 0.0 || *value >= limit ||
      std::trunc(*value) != *value) {
    return std::nullopt;
  }
  return value;
}

/// A bitrate ladder: finite, positive and strictly ascending.
std::optional<std::vector<double>> Ladder(const Fields& fields) {
  const auto it = fields.find("ladder");
  if (it == fields.end()) return std::nullopt;
  std::vector<double> values;
  std::istringstream in(it->second);
  std::string token;
  while (std::getline(in, token, ',')) {
    const auto value = ParseFinite(token);
    if (!value || *value <= (values.empty() ? 0.0 : values.back())) {
      return std::nullopt;
    }
    values.push_back(*value);
  }
  if (values.empty()) return std::nullopt;
  return values;
}

}  // namespace

void AppendExact(double value, std::string* out) {
  char text[32];  // "-2.2250738585072014e-308" is the longest, at 24
  auto written = std::to_chars(text, text + sizeof(text), value,
                               std::chars_format::general, 6);
  double back = 0.0;
  const auto read = std::from_chars(text, written.ptr, back);
  if (read.ec != std::errc{} || back != value) {
    written = std::to_chars(text, text + sizeof(text), value,
                            std::chars_format::general, 17);
  }
  out->append(text, written.ptr);
}

void AppendClientInfo(const ClientInfo& info, std::string* out) {
  if (info.utility) {
    out->append("beta=");
    AppendExact(info.utility->beta, out);
    out->push_back(';');
  }
  out->append("flow=");
  AppendExact(info.flow, out);
  out->append(";ladder=");
  for (std::size_t i = 0; i < info.ladder_bps.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendExact(info.ladder_bps[i], out);
  }
  if (info.max_level) {
    out->append(";max_level=");
    AppendExact(*info.max_level, out);
  }
  if (info.skimming) out->append(";skimming=1");
  if (info.utility) {
    out->append(";theta=");
    AppendExact(info.utility->theta_bps, out);
  }
  out->append(";type=client_info");
}

std::string EncodeClientInfo(const ClientInfo& info) {
  std::string out;
  AppendClientInfo(info, &out);
  return out;
}

std::optional<ClientInfo> DecodeClientInfo(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "client_info") {
    return std::nullopt;
  }
  const auto flow = WholeNumber(*fields, "flow", kFlowLimit);
  const auto ladder = Ladder(*fields);
  if (!flow || !ladder) return std::nullopt;

  ClientInfo info;
  info.flow = static_cast<FlowId>(*flow);
  info.ladder_bps = *ladder;
  if (fields->count("max_level") > 0) {
    const auto max_level = WholeNumber(*fields, "max_level", kIntLimit);
    if (!max_level) return std::nullopt;
    info.max_level = static_cast<int>(*max_level);
  }
  if (fields->count("beta") > 0 || fields->count("theta") > 0) {
    const auto beta = Number(*fields, "beta");
    const auto theta = Number(*fields, "theta");
    if (!beta || !theta || *beta <= 0.0 || *theta <= 0.0) return std::nullopt;
    VideoUtilityParams utility;
    utility.beta = *beta;
    utility.theta_bps = *theta;
    info.utility = utility;
  }
  info.skimming = fields->count("skimming") > 0 &&
                  fields->at("skimming") == "1";
  return info;
}

void AppendRateAssignment(const RateAssignmentMsg& msg, std::string* out) {
  out->append("flow=");
  AppendExact(msg.flow, out);
  out->append(";gbr=");
  AppendExact(msg.gbr_bps, out);
  out->append(";level=");
  AppendExact(msg.level, out);
  out->append(";rate=");
  AppendExact(msg.rate_bps, out);
  out->append(";type=rate_assignment");
}

std::string EncodeRateAssignment(const RateAssignmentMsg& msg) {
  std::string out;
  AppendRateAssignment(msg, &out);
  return out;
}

std::optional<RateAssignmentMsg> DecodeRateAssignment(
    const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "rate_assignment") {
    return std::nullopt;
  }
  const auto flow = WholeNumber(*fields, "flow", kFlowLimit);
  const auto level = WholeNumber(*fields, "level", kIntLimit);
  const auto rate = Number(*fields, "rate");
  const auto gbr = Number(*fields, "gbr");
  if (!flow || !level || !rate || !gbr) return std::nullopt;
  RateAssignmentMsg msg;
  msg.flow = static_cast<FlowId>(*flow);
  msg.level = static_cast<int>(*level);
  msg.rate_bps = *rate;
  msg.gbr_bps = *gbr;
  return msg;
}

void AppendStatsReport(const FlowStatsReport& report, std::string* out) {
  out->append(report.type == FlowType::kVideo ? "class=video" : "class=data");
  out->append(";flow=");
  AppendExact(report.flow, out);
  out->append(";rb_util=");
  AppendExact(report.rb_utilization, out);
  out->append(";rbs=");
  AppendExact(static_cast<double>(report.rbs), out);
  out->append(";tput=");
  AppendExact(report.throughput_bps, out);
  out->append(";tx_bytes=");
  AppendExact(static_cast<double>(report.tx_bytes), out);
  out->append(";type=stats_report");
}

std::string EncodeStatsReport(const FlowStatsReport& report) {
  std::string out;
  AppendStatsReport(report, &out);
  return out;
}

std::optional<FlowStatsReport> DecodeStatsReport(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "stats_report" ||
      fields->count("class") == 0) {
    return std::nullopt;
  }
  const auto flow = WholeNumber(*fields, "flow", kFlowLimit);
  const auto tx_bytes = WholeNumber(*fields, "tx_bytes", kUint64Limit);
  const auto rbs = WholeNumber(*fields, "rbs", kUint64Limit);
  const auto tput = Number(*fields, "tput");
  const auto rb_util = Number(*fields, "rb_util");
  if (!flow || !tx_bytes || !rbs || !tput || !rb_util) return std::nullopt;
  const std::string& cls = fields->at("class");
  if (cls != "video" && cls != "data") return std::nullopt;

  FlowStatsReport report;
  report.flow = static_cast<FlowId>(*flow);
  report.type = cls == "video" ? FlowType::kVideo : FlowType::kData;
  report.tx_bytes = static_cast<std::uint64_t>(*tx_bytes);
  report.rbs = static_cast<std::uint64_t>(*rbs);
  report.throughput_bps = *tput;
  report.rb_utilization = *rb_util;
  return report;
}

}  // namespace flare
