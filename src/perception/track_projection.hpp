#pragma once

#include <unordered_map>
#include <vector>

#include "math/vec2.hpp"
#include "perception/camera_model.hpp"
#include "perception/mot_tracker.hpp"

namespace rt::perception {

/// A camera track lifted into the road frame ("T" in Fig. 1): position and
/// velocity of the tracked object *relative to the ego*.
struct WorldTrack {
  int track_id{0};
  sim::ActorType cls{sim::ActorType::kVehicle};
  /// Relative position: x = range ahead, y = lateral (left positive).
  math::Vec2 rel_position;
  /// Relative velocity (road frame, derived from camera only).
  math::Vec2 rel_velocity;
  int hits{0};
  bool matched_this_frame{false};
  sim::ActorId last_truth_id{-1};
};

/// Transforms image-space tracks into road-frame estimates via ground-plane
/// back-projection, and maintains a smoothed relative-velocity estimate per
/// track (EMA over back-projected position differences — camera-only
/// velocity is noisy, which is precisely why the ADS prefers LiDAR velocity
/// when fusion has it).
class TrackProjector {
 public:
  explicit TrackProjector(CameraModel camera, double dt,
                          double velocity_ema_alpha = 0.22)
      : camera_(camera), dt_(dt), alpha_(velocity_ema_alpha) {}

  /// Projects this frame's confirmed tracks into a caller-owned buffer
  /// (cleared first); drops tracks that cannot be grounded (bottom edge
  /// above the horizon). Forgets state of vanished tracks.
  void project_into(const std::vector<TrackView>& tracks,
                    std::vector<WorldTrack>& out);

 private:
  struct History {
    math::Vec2 last_position;
    math::Vec2 velocity;
    bool has_velocity{false};
  };

  CameraModel camera_;
  double dt_;
  double alpha_;
  std::unordered_map<int, History> history_;
};

}  // namespace rt::perception
