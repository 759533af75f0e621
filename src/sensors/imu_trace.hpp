#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace moloc::sensors {

/// One inertial sample: the accelerometer magnitude (m/s^2, gravity
/// included — what the paper's Fig. 4 plots) and the compass heading
/// (degrees clockwise from north) at time `t` seconds.
struct ImuSample {
  double t = 0.0;
  double accelMagnitude = 0.0;
  double compassDeg = 0.0;
  double gyroRateDegPerSec = 0.0;  ///< Yaw rate; 0 when no gyro.
};

/// A fixed-rate inertial recording covering one localization interval.
class ImuTrace {
 public:
  explicit ImuTrace(double sampleRateHz = 50.0);

  double sampleRateHz() const { return sampleRateHz_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double duration() const;

  void append(ImuSample sample) { samples_.push_back(sample); }
  void reserve(std::size_t samples) { samples_.reserve(samples); }

  std::span<const ImuSample> samples() const { return samples_; }
  const ImuSample& operator[](std::size_t i) const { return samples_[i]; }

  /// Copies of the per-channel series, for detectors that operate on a
  /// single channel.
  std::vector<double> accelSeries() const;
  std::vector<double> compassSeries() const;
  std::vector<double> gyroSeries() const;

 private:
  double sampleRateHz_;
  std::vector<ImuSample> samples_;
};

}  // namespace moloc::sensors
