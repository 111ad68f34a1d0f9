#pragma once

#include <unordered_map>
#include <vector>

#include "perception/lidar_tracker.hpp"
#include "perception/track_projection.hpp"

namespace rt::perception {

/// One object of the fused world model ("W_t"): what the ADS planner acts on.
struct FusedObject {
  /// Stable id (the backing camera track id).
  int id{0};
  sim::ActorType cls{sim::ActorType::kVehicle};
  math::Vec2 rel_position;
  math::Vec2 rel_velocity;
  bool lidar_corroborated{false};
  /// True when the object sits inside the LiDAR's class coverage, i.e. the
  /// LiDAR *should* see it. Camera-only evidence for such an object is
  /// sensor disagreement and gets less trust downstream.
  bool lidar_expected{false};
  bool coasting{false};
  /// Age (hits) of the backing camera track — consumers gate velocity-based
  /// decisions on maturity because young tracks have unreliable velocity.
  int camera_hits{0};
  /// Ground-truth bookkeeping only.
  sim::ActorId last_truth_id{-1};
};

/// Tunables of the camera/LiDAR fusion stage.
struct FusionConfig {
  /// Camera/LiDAR pairing uses an *elliptical* gate: monocular
  /// (ground-plane) depth error grows with range, so the longitudinal
  /// tolerance is range-proportional, while both sensors localize well
  /// laterally, so the lateral tolerance is tight. A laterally-hijacked
  /// camera track therefore unpairs once it drifts `pair_gate_lateral`
  /// meters sideways — the "breakaway" the Move_* vectors aim for.
  double pair_gate_lateral{2.0};
  /// Monocular depth error on small objects (pedestrians) is far larger
  /// than on vehicles, so their pairing tolerance is wider.
  double pair_gate_longitudinal_frac_vehicle{0.12};
  double pair_gate_longitudinal_frac_pedestrian{0.22};
  double pair_gate_longitudinal_min{2.5};
  /// Blend weight of the LiDAR estimate when paired, per class. Vehicles
  /// return thousands of points, so LiDAR dominates; pedestrians return a
  /// handful, so the camera keeps most of the weight. This is the fusion
  /// half of the paper's pedestrian/vehicle asymmetry.
  double lidar_weight_vehicle{0.85};
  double lidar_weight_pedestrian{0.45};
  /// Velocity is blended with a LiDAR-dominant weight for *both* classes:
  /// range-rate from LiDAR beats camera finite differences regardless of
  /// how many points the cluster has.
  double lidar_velocity_weight{0.8};
  /// Camera-only publication age (frames) when the object is beyond LiDAR
  /// coverage for its class (nothing to disagree with)...
  int camera_only_age_far{4};
  /// ...and when LiDAR *should* see it but does not (sensor disagreement
  /// delays registration — §VI-C).
  int camera_only_age_near{12};
  /// Published objects whose camera track vanished coast this many frames.
  int coast_frames{4};
  /// Fraction of the LiDAR class range considered reliable coverage.
  double coverage_margin{0.9};
};

/// Camera-primary sensor fusion.
///
/// Publication rules (derived from the paper's observed Apollo behaviour —
/// camera evidence is load-bearing for object existence, LiDAR refines
/// kinematics and corroborates):
///  - camera track paired with a LiDAR track  -> publish once the camera
///    track has >= 2 hits; position/velocity are a per-class blend;
///  - camera-only track -> publish after `camera_only_age_far` frames when
///    beyond LiDAR coverage, after `camera_only_age_near` frames inside it;
///  - LiDAR-only tracks are never published (no class, no camera
///    confirmation) — this is what a camera-channel attacker exploits;
///  - a published object whose camera track disappears coasts briefly on
///    its last velocity, then drops out of the world model.
class Fusion {
 public:
  Fusion(FusionConfig config, LidarConfig lidar_config, double dt)
      : config_(config), lidar_config_(lidar_config), dt_(dt) {}

  /// Fuses this frame's camera world-tracks with the latest LiDAR tracks
  /// into a caller-owned buffer (cleared first).
  void fuse_into(const std::vector<WorldTrack>& camera,
                 const std::vector<LidarTrack>& lidar,
                 std::vector<FusedObject>& out);

  [[nodiscard]] const FusionConfig& config() const { return config_; }

 private:
  struct Record {
    bool published{false};
    int coast_left{0};
    FusedObject last;
  };

  FusionConfig config_;
  LidarConfig lidar_config_;
  double dt_;
  std::unordered_map<int, Record> records_;
  /// Per-frame association scratch, reused so a fusion step allocates
  /// nothing at steady state.
  std::vector<char> lidar_used_scratch_;
};

}  // namespace rt::perception
