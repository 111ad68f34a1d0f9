#pragma once

#include <unordered_map>
#include <vector>

#include "perception/camera_model.hpp"
#include "perception/detection.hpp"
#include "perception/noise_model.hpp"
#include "sim/world.hpp"
#include "stats/rng.hpp"

namespace rt::perception {

/// Statistical stand-in for the YOLOv3 object detector ("D" in Fig. 1).
///
/// Given the ground-truth objects visible to the camera, it produces noisy
/// pixel-space detections whose error statistics reproduce the paper's
/// Fig. 5 characterization: Gaussian center error (normalized by bbox size)
/// and exponentially-distributed continuous misdetection streaks, with
/// per-class parameters. See `ClassNoiseModel` for how the generator keeps
/// the fitted population faithful while remaining trackable.
///
/// The detector keeps per-object streak state, so misdetections are
/// *temporally correlated* exactly as measured — this is what makes the
/// Disappear attack indistinguishable from natural detector behaviour as
/// long as it stays under the streak distribution's 99th percentile.
class DetectorModel {
 public:
  DetectorModel(CameraModel camera, DetectorNoiseModel noise,
                stats::Rng rng);

  /// Runs the detector on the current world snapshot into a caller-owned
  /// frame (detections cleared first). `sim_time` stamps the frame.
  void detect_into(const std::vector<sim::GroundTruthObject>& objects,
                   double sim_time, CameraFrame& frame);

  [[nodiscard]] const CameraModel& camera() const { return camera_; }
  [[nodiscard]] const DetectorNoiseModel& noise() const { return noise_; }

  /// True if the object is currently inside a natural misdetection streak
  /// (exposed for tests and for the characterization harness).
  [[nodiscard]] bool in_streak(sim::ActorId id) const;

 private:
  CameraModel camera_;
  DetectorNoiseModel noise_;
  stats::Rng rng_;
  /// Active misdetection streak per actor. Two kinds, matching what the
  /// IoU < 0.6 criterion of §VI-A actually lumps together:
  ///  - kAbsent: the detector fires nothing (short streaks, core of the
  ///    distribution);
  ///  - kDegraded: the detector fires a badly-aligned box (IoU < 0.6
  ///    against truth). The long heavy-tail streaks are of this kind —
  ///    a real detector rarely blacks out for seconds, but it does emit
  ///    poorly-localized boxes for long stretches.
  struct Streak {
    int left{0};
    bool degraded{false};
    /// Persistent localization offset of a degraded streak (fractions of
    /// bbox size): a drifted detector stays drifted the same way for the
    /// whole streak, it does not teleport frame to frame.
    double fx{0.0};
    double fy{0.0};
    double sw{1.0};
    double sh{1.0};
  };
  std::unordered_map<sim::ActorId, Streak> streak_left_;
};

}  // namespace rt::perception
