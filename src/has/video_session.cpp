#include "has/video_session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace flare {

VideoSession::VideoSession(Simulator& sim, HttpClient& http, Mpd mpd,
                           std::unique_ptr<AbrAlgorithm> abr,
                           const VideoSessionConfig& config)
    : sim_(sim),
      http_(&http),
      mpd_(std::move(mpd)),
      abr_(std::move(abr)),
      config_(config),
      player_(config.player) {
  if (!mpd_.Valid()) throw std::invalid_argument("VideoSession: bad MPD");
  if (!abr_) throw std::invalid_argument("VideoSession: ABR is null");
}

void VideoSession::Start(SimTime start) {
  if (started_) return;
  started_ = true;
  sim_.At(
      start,
      [this] {
        live_origin_ = sim_.Now();
        PumpLoop();
      },
      this);
}

void VideoSession::RebindHttp(HttpClient& http) {
  http_ = &http;
  ++http_epoch_;
  if (request_in_flight_) {
    // The abandoned request's selection never completed; drop it from
    // the history so selections stay aligned with downloaded segments.
    request_in_flight_ = false;
    if (!selections_.empty()) selections_.pop_back();
  }
  if (started_ && !stopped_) PumpAt(sim_.Now());
}

void VideoSession::PumpAt(SimTime at) {
  sim_.At(at, [this] { PumpLoop(); }, this);
}

void VideoSession::PumpLoop() {
  if (stopped_ || request_in_flight_) return;
  player_.AdvanceTo(sim_.Now());

  // Finite media: stop once every segment has been fetched.
  if (mpd_.media_duration_s > 0.0) {
    const int total = static_cast<int>(mpd_.media_duration_s /
                                       mpd_.segment_duration_s);
    if (segments_completed_ >= total) {
      stopped_ = true;
      return;
    }
  }

  if (!player_.WantsMoreSegments()) {
    PumpAt(sim_.Now() + config_.idle_poll);
    return;
  }

  // Live mode: wait for the encoder to finish the next segment.
  if (config_.live) {
    const SimTime available_at =
        live_origin_ + FromSeconds((segments_completed_ + 1) *
                                   mpd_.segment_duration_s);
    if (sim_.Now() < available_at) {
      PumpAt(available_at);
      return;
    }
  }

  // Give the ABR a chance to jitter the request time (FESTIVE's randomized
  // scheduling); the delay applies once per request.
  const SimTime delay = abr_->RequestDelay(Context(/*with_history=*/false));
  if (delay > 0 && !delay_applied_) {
    delay_applied_ = true;
    PumpAt(sim_.Now() + delay);
    return;
  }
  delay_applied_ = false;
  RequestSegment();
}

AbrContext VideoSession::Context(bool with_history) const {
  AbrContext context;
  context.mpd = &mpd_;
  context.now = sim_.Now();
  context.segment_number = segments_completed_;
  context.last_index = selections_.empty() ? -1 : selections_.back();
  context.buffer_s = player_.buffer_s();
  if (with_history) {
    context.throughput_history_bps = throughputs_;
    context.download_rate_history_bps = download_rates_;
  }
  return context;
}

void VideoSession::RequestSegment() {
  int index = abr_->NextRepresentation(Context(/*with_history=*/true));
  index = std::clamp(index, 0, mpd_.NumRepresentations() - 1);
  selections_.push_back(index);

  request_in_flight_ = true;
  const double bitrate = mpd_.BitrateOf(index);
  const double duration = mpd_.segment_duration_s;
  http_->Get(mpd_.SegmentBytesAt(index, segments_completed_),
             [this, bitrate, duration, epoch = http_epoch_,
              alive = std::weak_ptr<char>(alive_)](const HttpResult& result) {
    // The session may be gone (churn departure tears it down while the
    // HTTP client still holds this completion) ...
    if (alive.expired()) return;
    // ... or a completion from a client we rebound away from is stale:
    // that segment was abandoned at handover.
    if (epoch != http_epoch_) return;
    request_in_flight_ = false;
    ++segments_completed_;
    player_.OnSegment(duration, bitrate, sim_.Now());

    throughputs_.push_back(result.throughput_bps);
    download_rates_.push_back(result.download_bps);
    if (static_cast<int>(throughputs_.size()) > config_.history_limit) {
      throughputs_.erase(throughputs_.begin());
      download_rates_.erase(download_rates_.begin());
    }

    abr_->OnSegmentComplete(Context(/*with_history=*/true),
                            result.throughput_bps);

    PumpLoop();
  });
}

}  // namespace flare
