#pragma once

#include <vector>

#include "math/vec2.hpp"
#include "sim/world.hpp"
#include "stats/rng.hpp"

namespace rt::perception {

/// One LiDAR object-level measurement: the clustered centroid of returns
/// from a single object, relative to the ego.
struct LidarMeasurement {
  math::Vec2 rel_position;
  /// Rough return count — fusion uses it as a confidence proxy.
  int point_count{0};
  /// Ground-truth bookkeeping only.
  sim::ActorId truth_id{-1};
};

/// Class-dependent effective detection ranges.
///
/// The paper attributes its central pedestrian/vehicle asymmetry to exactly
/// this (§VI-C): "LiDAR-based object detection fails to register pedestrians
/// at a higher longitudinal distance, while recognizing vehicles at the same
/// distance". Pedestrians return far fewer points, so clustering fails
/// beyond a much shorter range.
struct LidarConfig {
  double vehicle_range{80.0};
  double pedestrian_range{35.0};
  double lateral_coverage{15.0};     ///< |y| beyond this is not scanned
  double position_sigma{0.12};       ///< centroid noise per axis (m)
  double vehicle_detect_prob{0.97};
  double pedestrian_detect_prob{0.90};

  [[nodiscard]] double range_for(sim::ActorType t) const {
    return t == sim::ActorType::kVehicle ? vehicle_range : pedestrian_range;
  }
  [[nodiscard]] double detect_prob_for(sim::ActorType t) const {
    return t == sim::ActorType::kVehicle ? vehicle_detect_prob
                                         : pedestrian_detect_prob;
  }
};

/// Object-level LiDAR sensor model (10 Hz in the paper's setup).
///
/// Emits noisy centroid measurements for objects inside the class-dependent
/// range. The LiDAR path is *not* attackable in the threat model — the
/// malware only touches the camera link — so these measurements are always
/// truthful; their only weakness is range and latency.
class LidarModel {
 public:
  LidarModel(LidarConfig config, stats::Rng rng)
      : config_(config), rng_(rng) {}

  /// Scan into a caller-owned buffer (cleared first).
  void scan_into(const std::vector<sim::GroundTruthObject>& objects,
                 std::vector<LidarMeasurement>& out);

  [[nodiscard]] const LidarConfig& config() const { return config_; }

 private:
  LidarConfig config_;
  stats::Rng rng_;
};

}  // namespace rt::perception
