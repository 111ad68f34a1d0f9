#pragma once

#include <optional>
#include <vector>

#include "perception/camera_model.hpp"
#include "perception/noise_model.hpp"
#include "perception/detection.hpp"
#include "perception/fusion.hpp"
#include "perception/lidar_tracker.hpp"
#include "perception/mot_tracker.hpp"
#include "perception/perception_observer.hpp"
#include "perception/track_projection.hpp"

namespace rt::perception {

/// Output of one perception step: the fused world model W_t the planner
/// consumes, plus the intermediate camera-track state (exposed for the IDS
/// and for evaluation).
struct PerceptionOutput {
  double time{0.0};
  std::vector<FusedObject> world;         ///< published objects (W_t)
  std::vector<TrackView> camera_tracks;   ///< confirmed camera tracks
  std::vector<WorldTrack> camera_world;   ///< after "T" back-projection
  std::vector<LidarTrack> lidar_tracks;   ///< latest LiDAR tracker state
};

/// The full camera+LiDAR perception stack of Fig. 1:
/// detections -> MOT ("M" + "F") -> ground-plane transform ("T") -> fusion.
///
/// The camera frame it receives is whatever arrives over the (attackable)
/// camera link; LiDAR input is truthful. Runs at the camera rate; LiDAR
/// scans arrive on their own 10 Hz schedule via `ingest_lidar`.
class PerceptionSystem {
 public:
  PerceptionSystem(CameraModel camera, double camera_dt, double lidar_dt,
                   MotConfig mot_config = {}, FusionConfig fusion_config = {},
                   LidarConfig lidar_config = {},
                   DetectorNoiseModel noise =
                       DetectorNoiseModel::paper_defaults());

  /// Feeds one LiDAR scan (already clustered to object measurements).
  void ingest_lidar(const std::vector<LidarMeasurement>& scan);

  /// Processes one camera frame into the fused world model `out`, whose
  /// vectors are reused across frames (the closed loop's per-frame hot
  /// path).
  void step_into(const CameraFrame& frame, PerceptionOutput& out);

  [[nodiscard]] const MotTracker& tracker() const { return mot_; }

  /// Installs a passive per-step tap (nullptr = none). The observer is
  /// invoked at the end of every `step_into` with the consumed frame and the
  /// produced output; it outlives the pointer set here at the caller's
  /// responsibility.
  void set_observer(PerceptionObserver* observer) { observer_ = observer; }

 private:
  MotTracker mot_;
  TrackProjector projector_;
  LidarTracker lidar_tracker_;
  Fusion fusion_;
  PerceptionObserver* observer_{nullptr};
};

}  // namespace rt::perception
