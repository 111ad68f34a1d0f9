#pragma once

#include <vector>

#include "perception/lidar_model.hpp"

namespace rt::perception {

/// One tracked LiDAR object (alpha-beta filtered centroid).
struct LidarTrack {
  int track_id{0};
  math::Vec2 rel_position;
  math::Vec2 rel_velocity;
  int hits{1};
  int consecutive_misses{0};
  sim::ActorId last_truth_id{-1};
};

/// Nearest-neighbour LiDAR tracker running at the LiDAR rate (10 Hz).
///
/// Simpler than the camera MOT on purpose: LiDAR centroids are precise, so
/// greedy gating plus an alpha-beta filter suffices. LiDAR tracks carry no
/// class — classification lives in the camera path, which is exactly the
/// structural weakness the fusion rules inherit (see Fusion).
class LidarTracker {
 public:
  struct Config {
    double gate{2.0};        ///< association gate (m)
    int max_misses{3};       ///< scans before a silent track is dropped
    double alpha{0.45};      ///< position correction gain
    double beta{0.18};       ///< velocity correction gain
  };

  explicit LidarTracker(double dt) : LidarTracker(dt, Config{}) {}
  LidarTracker(double dt, Config config) : dt_(dt), config_(config) {}

  /// Processes one scan; `tracks()` is the live track list after it.
  /// Allocation-free once the track and scan sizes have been seen.
  void update(const std::vector<LidarMeasurement>& scan);

  /// Latest track list without processing a new scan (camera frames arrive
  /// between LiDAR scans; fusion reads the last state).
  [[nodiscard]] const std::vector<LidarTrack>& tracks() const {
    return tracks_;
  }

 private:
  double dt_;
  Config config_;
  std::vector<LidarTrack> tracks_;
  int next_id_{1};
  // Per-scan association scratch, kept so an update allocates nothing.
  std::vector<char> meas_used_;
  std::vector<char> track_hit_;
};

}  // namespace rt::perception
