#include "perception/perception_system.hpp"

namespace rt::perception {

PerceptionSystem::PerceptionSystem(CameraModel camera, double camera_dt,
                                   double lidar_dt, MotConfig mot_config,
                                   FusionConfig fusion_config,
                                   LidarConfig lidar_config,
                                   DetectorNoiseModel noise)
    : mot_(camera_dt, mot_config, noise),
      projector_(camera, camera_dt),
      lidar_tracker_(lidar_dt),
      fusion_(fusion_config, lidar_config, camera_dt) {}

void PerceptionSystem::ingest_lidar(
    const std::vector<LidarMeasurement>& scan) {
  lidar_tracker_.update(scan);
}

void PerceptionSystem::step_into(const CameraFrame& frame,
                                 PerceptionOutput& out) {
  out.time = frame.time;
  mot_.update_into(frame, out.camera_tracks);
  projector_.project_into(out.camera_tracks, out.camera_world);
  out.lidar_tracks = lidar_tracker_.tracks();
  fusion_.fuse_into(out.camera_world, out.lidar_tracks, out.world);
  if (observer_ != nullptr) observer_->on_perception(frame, out);
}

}  // namespace rt::perception
