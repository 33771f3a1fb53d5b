// Minimal HTTP/1.1-style request layer over a TcpFlow.
//
// A HAS client issues one GET per video segment; the request travels half
// an RTT uplink before the server starts streaming the response body. The
// client object tracks response progress and reports per-request download
// throughput — the signal client-side ABR estimators feed on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "sim/simulator.h"
#include "transport/tcp_flow.h"

namespace flare {

struct HttpResult {
  std::uint64_t bytes = 0;
  SimTime requested_at = 0;
  SimTime first_byte_at = 0;
  SimTime completed_at = 0;
  /// Goodput over the full request (request send -> last byte), bits/s.
  double throughput_bps = 0.0;
  /// Receive-phase rate (first byte -> last byte), bits/s. Excludes the
  /// request round trip and server think time, so it runs at the link's
  /// instantaneous share — higher and more optimistic than throughput_bps.
  double download_bps = 0.0;
};

class HttpClient {
 public:
  using CompleteFn = std::function<void(const HttpResult&)>;
  /// Progress: cumulative bytes of the in-flight response received so far.
  using ProgressFn = std::function<void(std::uint64_t bytes, SimTime now)>;

  HttpClient(Simulator& sim, TcpFlow& flow);
  /// Safe to destroy mid-request (session churn), in either order with
  /// the flow: the destructor cancels a GET still on the uplink, and the
  /// receive callback left on the flow is liveness-guarded.
  ~HttpClient() { sim_.CancelOwned(this); }

  /// Issue a GET for a `bytes`-sized object. Requests queue FIFO if one is
  /// already in flight (HTTP/1.1 persistent connection semantics).
  void Get(std::uint64_t bytes, CompleteFn on_complete);

  void SetProgressCallback(ProgressFn fn) { on_progress_ = std::move(fn); }

  bool busy() const { return current_.has_value() || !queue_.empty(); }

 private:
  struct Request {
    std::uint64_t bytes;
    CompleteFn on_complete;
  };

  void StartNext();
  void OnReceive(std::uint64_t bytes, SimTime now);

  Simulator& sim_;
  TcpFlow& flow_;
  std::deque<Request> queue_;
  struct InFlight {
    Request request;
    HttpResult result;
    std::uint64_t received = 0;
  };
  std::optional<InFlight> current_;
  ProgressFn on_progress_;
  // Guards the flow's receive callback, which the client cannot clear
  // when destroyed: handover destroys the flow first.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace flare
