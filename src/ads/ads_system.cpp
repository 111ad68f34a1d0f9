#include "ads/ads_system.hpp"

#include "sim/types.hpp"

namespace rt::ads {

AdsSystem::AdsSystem(perception::CameraModel camera, double camera_dt,
                     double lidar_dt, PlannerConfig planner_config,
                     perception::MotConfig mot_config,
                     perception::FusionConfig fusion_config,
                     perception::LidarConfig lidar_config,
                     perception::DetectorNoiseModel noise)
    : camera_dt_(camera_dt),
      perception_(camera, camera_dt, lidar_dt, mot_config, fusion_config,
                  lidar_config, noise),
      planner_(planner_config),
      // PID on the acceleration request; the plant's jerk limiter provides
      // further smoothing downstream.
      pid_({/*kp=*/0.9, /*ki=*/0.15, /*kd=*/0.0},
           -planner_config.eb_command_decel, 3.0) {
  const auto dims = sim::default_dimensions(sim::ActorType::kVehicle);
  ego_width_ = dims.width;
  ego_length_ = dims.length;
}

void AdsSystem::ingest_lidar(
    const std::vector<perception::LidarMeasurement>& scan) {
  perception_.ingest_lidar(scan);
}

void AdsSystem::step_into(const perception::CameraFrame& frame,
                          double ego_speed, double ego_accel, AdsOutput& out) {
  perception_.step_into(frame, out.perception);
  out.world.time = frame.time;
  out.world.ego_speed = ego_speed;
  out.world.objects = out.perception.world;
  out.plan = planner_.plan(out.world, ego_width_, ego_length_);
  out.eb_active = out.plan.eb_active;
  if (out.eb_active) {
    // Emergency braking bypasses the comfort smoothing (AEB semantics).
    pid_.reset();
    out.accel_command = out.plan.accel_command;
  } else {
    // Acceleration-tracking loop: the PID drives the measured plant
    // acceleration toward the planner's request, smoothing step changes.
    const double u =
        pid_.step(out.plan.accel_command - ego_accel, camera_dt_);
    out.accel_command = out.plan.accel_command + u;
  }
}

}  // namespace rt::ads
