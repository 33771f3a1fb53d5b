// A HAS streaming session: the download loop binding together the HTTP
// client, the playout buffer, and an ABR algorithm.
//
// Loop per segment: advance the player, ask the ABR for the next
// representation, GET the segment, credit the buffer, feed the throughput
// sample back to the ABR, repeat — pausing while the buffer sits above the
// player's max level (the "ON-OFF" behaviour characteristic of HAS).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "abr/abr.h"
#include "has/mpd.h"
#include "has/player.h"
#include "sim/simulator.h"
#include "transport/http.h"

namespace flare {

struct VideoSessionConfig {
  PlayerConfig player;
  /// Throughput samples kept for the ABR context.
  int history_limit = 20;
  /// Poll period while the buffer is full.
  SimTime idle_poll = 200 * kMillisecond;
  /// Live mode: segment k only becomes available once the encoder has
  /// finished it, (k+1) * segment_duration after the session starts. The
  /// buffer is then naturally bounded by the live edge instead of
  /// max_buffer_s.
  bool live = false;
};

class VideoSession {
 public:
  VideoSession(Simulator& sim, HttpClient& http, Mpd mpd,
               std::unique_ptr<AbrAlgorithm> abr,
               const VideoSessionConfig& config);

  /// Cancels the session's pending timers.
  ~VideoSession() { sim_.CancelOwned(this); }

  VideoSession(const VideoSession&) = delete;
  VideoSession& operator=(const VideoSession&) = delete;

  /// Begin streaming at `start` (absolute simulated time).
  void Start(SimTime start);

  /// Stop requesting further segments (current download completes).
  void Stop() { stopped_ = true; }

  /// Re-point the session at a different HTTP client (handover: the old
  /// transport flow was torn down with the source cell). Any in-flight
  /// request on the old client is abandoned — its segment is neither
  /// counted nor credited — and the loop resumes on the new path.
  void RebindHttp(HttpClient& http);

  const VideoPlayer& player() const { return player_; }
  VideoPlayer& player() { return player_; }
  const Mpd& mpd() const { return mpd_; }

  int segments_completed() const { return segments_completed_; }
  /// Representation indices actually downloaded, in order.
  const std::vector<int>& selection_history() const { return selections_; }
  /// Per-segment download throughputs (bits/s), in order.
  const std::vector<double>& throughput_history() const {
    return throughputs_;
  }

 private:
  void PumpLoop();
  /// Schedule PumpLoop at `at` as one of the session's owned events.
  void PumpAt(SimTime at);
  void RequestSegment();
  /// The ABR's view of the session now; the throughput histories are
  /// copied only `with_history`.
  AbrContext Context(bool with_history) const;

  Simulator& sim_;
  HttpClient* http_;  // non-owning; swappable via RebindHttp
  Mpd mpd_;
  std::unique_ptr<AbrAlgorithm> abr_;
  VideoSessionConfig config_;
  VideoPlayer player_;

  bool started_ = false;
  bool stopped_ = false;
  bool request_in_flight_ = false;
  bool delay_applied_ = false;
  int http_epoch_ = 0;  // bumped by RebindHttp to invalidate callbacks
  SimTime live_origin_ = 0;  // stream start (live-edge reference)
  int segments_completed_ = 0;
  std::vector<int> selections_;
  std::vector<double> throughputs_;
  std::vector<double> download_rates_;
  // Guards the GET completion the HTTP client holds: the session cannot
  // withdraw it when destroyed, since its client may already be gone.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace flare
