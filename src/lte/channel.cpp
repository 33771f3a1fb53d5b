#include "lte/channel.h"

#include <algorithm>
#include <cmath>

#include "lte/amc.h"
#include "lte/tbs_table.h"

namespace flare {

ItbsOverrideChannel::Schedule TriangleItbsSchedule(int lo, int hi,
                                                   SimTime period,
                                                   SimTime offset) {
  return [lo, hi, period, offset](SimTime now) {
    if (period <= 0 || hi <= lo) return lo;
    const SimTime t = (now + offset) % period;
    const double phase =
        static_cast<double>(t) / static_cast<double>(period);  // [0,1)
    // Rise for the first half of the cycle, fall for the second.
    const double frac = phase < 0.5 ? phase * 2.0 : (1.0 - phase) * 2.0;
    const int steps = hi - lo;
    return lo + static_cast<int>(std::lround(frac * steps));
  };
}

double PathlossDb(double distance_m) {
  const double d_km = std::max(distance_m, 1.0) / 1000.0;
  return 128.1 + 37.6 * std::log10(d_km);
}

double FriisPathlossDb(double distance_m, double freq_hz) {
  constexpr double kC = 3.0e8;
  const double d = std::max(distance_m, 1.0);
  return 20.0 * std::log10(4.0 * M_PI * d * freq_hz / kC);
}

FadedMobilityChannel::FadedMobilityChannel(
    std::shared_ptr<MobilityModel> mobility, const RadioConfig& config,
    Rng rng, Position site)
    : mobility_(std::move(mobility)), config_(config), site_(site) {
  shadowing_db_ = rng.Gaussian(0.0, config_.shadowing_stddev_db);
  // Sum-of-sinusoids fading process: eight oscillators with random phases
  // and Doppler-spread-ish frequencies (0.5..8 Hz), scaled so the marginal
  // standard deviation matches fading_stddev_db. The trace repeats every
  // ~60 s, which is long relative to the BAI and segment timescales.
  constexpr int kOscillators = 8;
  constexpr double kTraceSeconds = 60.0;
  const int samples = static_cast<int>(
      kTraceSeconds * static_cast<double>(kSecond) /
      static_cast<double>(std::max<SimTime>(config_.fading_sample_period, 1)));
  std::vector<double> freq_hz(kOscillators);
  std::vector<double> phase(kOscillators);
  for (int k = 0; k < kOscillators; ++k) {
    freq_hz[k] = rng.Uniform(0.5, 8.0);
    phase[k] = rng.Uniform(0.0, 2.0 * M_PI);
  }
  const double amplitude =
      config_.fading_stddev_db * std::sqrt(2.0 / kOscillators);
  fading_trace_db_.resize(std::max(samples, 1));
  for (int i = 0; i < static_cast<int>(fading_trace_db_.size()); ++i) {
    const double t = static_cast<double>(i) *
                     ToSeconds(config_.fading_sample_period);
    double v = 0.0;
    for (int k = 0; k < kOscillators; ++k) {
      v += amplitude * std::sin(2.0 * M_PI * freq_hz[k] * t + phase[k]);
    }
    fading_trace_db_[i] = v;
  }
}

std::size_t FadedMobilityChannel::FadingIndex(SimTime now) const {
  return static_cast<std::size_t>(
      (now / std::max<SimTime>(config_.fading_sample_period, 1)) %
      static_cast<SimTime>(fading_trace_db_.size()));
}

double FadedMobilityChannel::SinrDb(Position p,
                                    std::size_t fading_index) const {
  const double distance = std::max(
      std::hypot(p.x - site_.x, p.y - site_.y), config_.min_distance_m);
  double pathloss;
  switch (config_.pathloss) {
    case PathlossModel::kMacro3gpp:
      pathloss = PathlossDb(distance);
      break;
    case PathlossModel::kFriisPenetration:
    default:
      pathloss = FriisPathlossDb(distance) + config_.penetration_loss_db;
      break;
  }
  const double rx_dbm = config_.tx_power_dbm - pathloss + shadowing_db_ +
                        fading_trace_db_[fading_index];
  return rx_dbm - config_.noise_dbm;
}

double FadedMobilityChannel::SinrDbAt(SimTime now) {
  return SinrDb(mobility_->At(now), FadingIndex(now));
}

int FadedMobilityChannel::ItbsAt(SimTime now) {
  // The mobility model is queried every call: it may advance internal
  // state (random-waypoint legs) and must see every TTI as before.
  const Position p = mobility_->At(now);
  const std::size_t fading_index = FadingIndex(now);
  if (fading_index == memo_fading_index_ && p.x == memo_position_.x &&
      p.y == memo_position_.y) {
    return memo_itbs_;
  }
  memo_position_ = p;
  memo_fading_index_ = fading_index;
  memo_itbs_ = SinrDbToItbs(SinrDb(p, fading_index));
  return memo_itbs_;
}

}  // namespace flare
