#include "transport/http.h"

#include <algorithm>
#include <utility>

namespace flare {

HttpClient::HttpClient(Simulator& sim, TcpFlow& flow)
    : sim_(sim), flow_(flow) {
  flow_.SetOnReceive([this, alive = std::weak_ptr<char>(alive_)](
                         std::uint64_t bytes, SimTime now) {
    if (alive.expired()) return;
    OnReceive(bytes, now);
  });
}

void HttpClient::Get(std::uint64_t bytes, CompleteFn on_complete) {
  queue_.push_back(Request{bytes, std::move(on_complete)});
  if (!current_) StartNext();
}

void HttpClient::StartNext() {
  if (queue_.empty()) return;
  InFlight in_flight;
  in_flight.request = std::move(queue_.front());
  queue_.pop_front();
  in_flight.result.bytes = in_flight.request.bytes;
  in_flight.result.requested_at = sim_.Now();

  // Zero-byte objects complete immediately (no response body would ever
  // arrive to drive OnReceive).
  if (in_flight.request.bytes == 0) {
    in_flight.result.first_byte_at = sim_.Now();
    in_flight.result.completed_at = sim_.Now();
    CompleteFn on_complete = std::move(in_flight.request.on_complete);
    if (on_complete) on_complete(in_flight.result);
    if (!current_) StartNext();
    return;
  }
  current_ = std::move(in_flight);

  // The GET itself crosses the uplink before the server starts sending.
  const std::uint64_t bytes = current_->request.bytes;
  sim_.After(FromSeconds(0.02), [this, bytes] { flow_.Send(bytes); }, this);
}

void HttpClient::OnReceive(std::uint64_t bytes, SimTime now) {
  if (!current_) return;  // stray delivery after cancellation
  InFlight& c = *current_;
  if (c.received == 0) c.result.first_byte_at = now;
  c.received += bytes;
  if (on_progress_) on_progress_(c.received, now);
  if (c.received < c.request.bytes) return;

  c.result.completed_at = now;
  const double elapsed =
      std::max(ToSeconds(now - c.result.requested_at), 1e-9);
  c.result.throughput_bps =
      static_cast<double>(c.request.bytes) * 8.0 / elapsed;
  const double receive_time =
      std::max(ToSeconds(now - c.result.first_byte_at), 1e-9);
  c.result.download_bps =
      static_cast<double>(c.request.bytes) * 8.0 / receive_time;

  // Finish: detach state before invoking the callback, which may issue the
  // next Get synchronously.
  CompleteFn on_complete = std::move(c.request.on_complete);
  const HttpResult result = c.result;
  current_.reset();
  if (on_complete) on_complete(result);
  if (!current_) StartNext();
}

}  // namespace flare
