#include "experiments/characterization.hpp"

#include <cmath>
#include <unordered_map>

#include "perception/detector_model.hpp"
#include "sim/road.hpp"
#include "sim/world.hpp"

namespace rt::experiments {

namespace {

/// The characterization "drive": a static ego observing a population of
/// vehicles and pedestrians spread over ranges and lateral offsets (the
/// statistics of interest — center-error and miss streaks — depend on the
/// detector, not on ego motion).
std::vector<sim::Actor> characterization_actors() {
  using sim::Actor;
  using sim::ActorType;
  std::vector<Actor> actors;
  sim::ActorId id = 1;
  // Vehicles at a spread of ranges, ego lane and adjacent lane.
  for (const double x : {15.0, 25.0, 40.0, 60.0, 90.0}) {
    actors.emplace_back(id++, ActorType::kVehicle,
                        math::Vec2{x, (id % 2 == 0)
                                          ? sim::Road::kEgoLaneCenter
                                          : sim::Road::kAdjacentLaneCenter});
  }
  // Pedestrians on the curb and in the parking lane.
  for (const double x : {12.0, 20.0, 30.0, 45.0, 65.0}) {
    actors.emplace_back(id++, ActorType::kPedestrian,
                        math::Vec2{x, (id % 2 == 0) ? -5.0 : -3.0});
  }
  return actors;
}

void finish_streak(ClassCharacterization& c, int& streak) {
  if (streak > 0) {
    c.streaks.push_back(static_cast<double>(streak));
    streak = 0;
  }
}

}  // namespace

CharacterizationResult characterize_detector(
    const CharacterizationConfig& config,
    const perception::CameraModel& camera,
    const perception::DetectorNoiseModel& noise) {
  const double dt = 1.0 / config.camera_hz;
  sim::World world(sim::EgoVehicle(0.0, 0.0), characterization_actors());
  perception::DetectorModel detector(camera, noise,
                                     stats::Rng(config.seed));

  CharacterizationResult result;
  std::unordered_map<sim::ActorId, int> active_streak;

  const int frames = static_cast<int>(config.duration_s * config.camera_hz);
  std::vector<sim::GroundTruthObject> gt;
  perception::CameraFrame frame;
  for (int f = 0; f < frames; ++f) {
    world.ground_truth_into(gt);
    detector.detect_into(gt, f * dt, frame);

    for (const auto& obj : gt) {
      const auto truth_box = camera.project(obj);
      if (!truth_box) continue;
      ClassCharacterization& c = obj.type == sim::ActorType::kVehicle
                                     ? result.vehicle
                                     : result.pedestrian;
      ++c.object_frames;

      const perception::Detection* match = nullptr;
      for (const auto& d : frame.detections) {
        if (d.truth_id == obj.id) {
          match = &d;
          break;
        }
      }
      const bool misdetected =
          match == nullptr ||
          math::iou(match->bbox, *truth_box) < config.iou_threshold;
      int& streak = active_streak[obj.id];
      if (misdetected) {
        ++c.misdetections;
        ++streak;
      } else {
        finish_streak(c, streak);
      }
      if (match != nullptr) {
        // Only boxes overlapping the ground truth enter the center-error
        // population (§VI-A).
        if (math::iou(match->bbox, *truth_box) > 0.0) {
          c.deltas_x.push_back((match->bbox.cx - truth_box->cx) /
                               truth_box->w);
          c.deltas_y.push_back((match->bbox.cy - truth_box->cy) /
                               truth_box->h);
        }
      }
    }
  }
  // Close any streaks still open at the end of the drive.
  for (auto& [id, streak] : active_streak) {
    const auto obj = world.ground_truth_for(id);
    if (!obj) continue;
    ClassCharacterization& c = obj->type == sim::ActorType::kVehicle
                                   ? result.vehicle
                                   : result.pedestrian;
    finish_streak(c, streak);
  }

  for (ClassCharacterization* c : {&result.vehicle, &result.pedestrian}) {
    c->fit_x = stats::fit_normal(c->deltas_x);
    c->fit_y = stats::fit_normal(c->deltas_y);
    c->streak_fit = stats::fit_exponential(c->streaks, /*loc=*/1.0);
  }
  return result;
}

}  // namespace rt::experiments
