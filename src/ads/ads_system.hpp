#pragma once

#include <optional>

#include "ads/pid.hpp"
#include "ads/planner.hpp"
#include "ads/world_model.hpp"
#include "perception/perception_system.hpp"

namespace rt::ads {

/// Result of one ADS control cycle.
struct AdsOutput {
  double accel_command{0.0};    ///< actuation A_t sent to the plant
  bool eb_active{false};
  WorldModel world;             ///< the fused belief W_t this cycle acted on
  perception::PerceptionOutput perception;
  PlanOutput plan;
};

/// The end-to-end ADS stack: perception -> prediction -> planning -> PID.
///
/// This is the production-software stand-in for Apollo: it consumes raw
/// sensor data (the camera frame arriving over the attackable link, plus
/// truthful LiDAR scans) and produces the actuation command for the ego
/// plant. The control loop runs at the camera rate (15 Hz).
class AdsSystem {
 public:
  AdsSystem(perception::CameraModel camera, double camera_dt,
            double lidar_dt, PlannerConfig planner_config = {},
            perception::MotConfig mot_config = {},
            perception::FusionConfig fusion_config = {},
            perception::LidarConfig lidar_config = {},
            perception::DetectorNoiseModel noise =
                perception::DetectorNoiseModel::paper_defaults());

  /// Feeds a LiDAR scan (10 Hz schedule, driven by the closed loop).
  void ingest_lidar(const std::vector<perception::LidarMeasurement>& scan);

  /// One control cycle on a camera frame, into a caller-owned output whose
  /// vectors are reused across control cycles (the closed loop's per-frame
  /// hot path). `ego_accel` is the measured plant acceleration the PID
  /// closes its loop on.
  void step_into(const perception::CameraFrame& frame, double ego_speed,
                 double ego_accel, AdsOutput& out);

  [[nodiscard]] const LongitudinalPlanner& planner() const {
    return planner_;
  }

  /// Installs a passive tap on the perception pipeline (nullptr = none) —
  /// the hook the `rt::defense` runtime attack monitors attach through.
  void set_perception_observer(perception::PerceptionObserver* observer) {
    perception_.set_observer(observer);
  }

 private:
  double camera_dt_;
  perception::PerceptionSystem perception_;
  LongitudinalPlanner planner_;
  PidController pid_;
  double ego_width_;
  double ego_length_;
};

}  // namespace rt::ads
