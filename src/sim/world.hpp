#pragma once

#include <optional>
#include <vector>

#include "sim/actor.hpp"
#include "sim/ego_vehicle.hpp"
#include "sim/road.hpp"
#include "sim/types.hpp"

namespace rt::sim {

/// Ground-truth snapshot of one actor relative to the ego vehicle, as
/// consumed by the sensor models and the (evaluation-side) safety monitor.
struct GroundTruthObject {
  ActorId id{0};
  ActorType type{ActorType::kVehicle};
  Dimensions dims;
  /// Position of the object's center relative to the ego center
  /// (x: ahead, y: left).
  math::Vec2 rel_position;
  /// Velocity relative to the ego (object velocity minus ego velocity on x).
  math::Vec2 rel_velocity;
  /// Absolute velocity in the road frame.
  math::Vec2 abs_velocity;
  /// Absolute acceleration in the road frame.
  math::Vec2 abs_acceleration;

  /// Bumper-to-bumper longitudinal gap (>= 0; 0 means touching/overlap).
  [[nodiscard]] double longitudinal_gap(double ego_length) const {
    const double gap =
        rel_position.x - dims.length / 2.0 - ego_length / 2.0;
    return gap > 0.0 ? gap : 0.0;
  }
};

/// The ground-truth world: the ego plant plus all scripted actors.
///
/// This is the substrate replacing the LGSVL simulator: it advances
/// kinematics at a fixed rate and answers the ground-truth queries that the
/// sensor models (camera, LiDAR) and the safety monitor need. Nothing in
/// here is visible to the ADS directly — the ADS only sees sensor output.
class World {
 public:
  World(EgoVehicle ego, std::vector<Actor> actors);

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] const EgoVehicle& ego() const { return ego_; }
  [[nodiscard]] const std::vector<Actor>& actors() const { return actors_; }

  /// Advances the world by `dt` with the given ego acceleration command.
  void step(double dt, double ego_accel_command);

  /// Ground truth for all actors, relative to the ego, into a caller-owned
  /// buffer (cleared first; capacity reused by per-frame callers).
  void ground_truth_into(std::vector<GroundTruthObject>& out) const;

  /// Ground truth for one actor by id; nullopt if the id is unknown.
  [[nodiscard]] std::optional<GroundTruthObject> ground_truth_for(
      ActorId id) const;

  /// True if the ego's footprint overlaps any actor's footprint.
  [[nodiscard]] bool collision() const;

  /// The nearest actor ahead of the ego whose footprint overlaps the ego
  /// travel corridor (ground-truth in-path object); nullopt if none.
  [[nodiscard]] std::optional<GroundTruthObject> nearest_in_path() const;

 private:
  [[nodiscard]] GroundTruthObject snapshot(const Actor& a) const;

  double time_{0.0};
  EgoVehicle ego_;
  std::vector<Actor> actors_;
};

}  // namespace rt::sim
