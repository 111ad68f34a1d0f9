#pragma once

#include <vector>

#include "perception/camera_model.hpp"
#include "perception/noise_model.hpp"
#include "sim/actor.hpp"
#include "stats/fit.hpp"

namespace rt::experiments {

/// Configuration of the detector characterization drive (§VI-A: "we
/// generated a sequence of images and labels by manually driving the
/// vehicle ... for 10 minutes in simulation").
struct CharacterizationConfig {
  double duration_s{600.0};
  double camera_hz{15.0};
  std::uint64_t seed{20200613};
  /// IoU below this (or a missing detection) counts as a misdetection.
  double iou_threshold{0.6};
};

/// Fig. 5 artefacts for one object class.
struct ClassCharacterization {
  stats::NormalFit fit_x;           ///< normalized center error, image x
  stats::NormalFit fit_y;           ///< normalized center error, image y
  stats::ExponentialFit streak_fit; ///< misdetection streak length (loc 1)
  std::vector<double> deltas_x;
  std::vector<double> deltas_y;
  std::vector<double> streaks;
  std::size_t object_frames{0};
  std::size_t misdetections{0};

  [[nodiscard]] double misdetection_rate() const {
    return object_frames > 0 ? static_cast<double>(misdetections) /
                                   static_cast<double>(object_frames)
                             : 0.0;
  }
};

/// Full Fig. 5 characterization: per-class fits + raw samples.
struct CharacterizationResult {
  ClassCharacterization vehicle;
  ClassCharacterization pedestrian;

  [[nodiscard]] const ClassCharacterization& for_class(
      sim::ActorType t) const {
    return t == sim::ActorType::kVehicle ? vehicle : pedestrian;
  }
};

/// The characterization "drive": a static ego observing a population of
/// vehicles and pedestrians spread over ranges and lateral offsets (the
/// statistics of interest — center-error and miss streaks — depend on the
/// detector, not on ego motion).
[[nodiscard]] std::vector<sim::Actor> characterization_actors();

/// Runs the characterization drive against the detector model and fits the
/// paper's distributions. The drive places vehicles and pedestrians at a
/// spread of ranges in the camera frustum and records, per object-frame,
/// whether the detection counts as a misdetection (absent or IoU < 0.6)
/// and, if matched, the size-normalized bbox-center error.
[[nodiscard]] CharacterizationResult characterize_detector(
    const CharacterizationConfig& config,
    const perception::CameraModel& camera,
    const perception::DetectorNoiseModel& noise);

}  // namespace rt::experiments
