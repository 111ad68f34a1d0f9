#pragma once

#include <optional>
#include <vector>

#include "perception/bbox_track.hpp"
#include "perception/detection.hpp"
#include "perception/hungarian.hpp"

namespace rt::perception {

/// Read-only snapshot of one confirmed track after a tracker step.
struct TrackView {
  int track_id{0};
  sim::ActorType cls{sim::ActorType::kVehicle};
  math::Bbox bbox;            ///< post-update estimate
  math::Bbox predicted_bbox;  ///< pre-update prediction for this frame
  double vu{0.0};             ///< image-x velocity, px/s
  double vv{0.0};             ///< image-y velocity, px/s
  int hits{0};
  int consecutive_misses{0};
  bool matched_this_frame{false};
  sim::ActorId last_truth_id{-1};
  /// Pre-update innovation of the matched detection (see BboxTrack): squared
  /// Mahalanobis distance (-1 while unmatched) and size-normalized center
  /// displacement per axis. Consumed by the runtime attack monitors.
  double innovation_m2{-1.0};
  double innovation_x{0.0};
  double innovation_y{0.0};
};

/// Configuration of the tracking-by-detection manager.
struct MotConfig {
  /// Association gate on IoU cost: a (detection, track) pair with
  /// 1 - IoU > max_cost is never matched. The paper's lambda plays this role
  /// in Eq. 4 — the attacker must keep its shifted detection *inside* this
  /// gate to stay attached to the victim track.
  double max_cost{0.8};
  /// Innovation gate: a matched detection whose size-normalized center
  /// displacement from the track prediction exceeds
  /// `innovation_gate_mult * (|mu| + sigma)` of the characterized class
  /// noise is rejected as an outlier (treated as a miss). This is the
  /// filter-side calibration the paper's stealth bound dances under: the
  /// attacker's <= 1.0-sigma steps always pass.
  double innovation_gate_mult{1.2};
  /// A track is dropped after this many consecutive missed frames. Sized
  /// to coast through the *core* of the natural dropout-streak distribution
  /// (mean ~2-4 frames) — only abnormal blackouts (or Disappear attacks)
  /// outlast it.
  int max_misses{8};
  /// A track is reported (confirmed) once it has this many hits.
  int min_hits{2};
};

/// Multiple-object tracker ("tracking-by-detection", §II-B): per-frame
/// Hungarian association of detections to per-object Kalman trackers.
class MotTracker {
 public:
  MotTracker(double dt, MotConfig config,
             DetectorNoiseModel noise = DetectorNoiseModel::paper_defaults());
  explicit MotTracker(double dt) : MotTracker(dt, MotConfig{}) {}

  /// Processes one camera frame; writes snapshots of the confirmed tracks
  /// into the caller-owned buffer `out` (cleared first).
  void update_into(const CameraFrame& frame, std::vector<TrackView>& out);

  /// Snapshot of a live track by id (confirmed or not); nullopt if unknown.
  [[nodiscard]] std::optional<TrackView> track(int track_id) const;

  /// Snapshots of all live tracks (confirmed or not).
  [[nodiscard]] std::vector<TrackView> live_tracks() const;

  /// One-step-ahead bbox prediction for a track: where the KF expects the
  /// *next* measurement. This is the "s_hat_{t-1}" an Eq.-4 attacker pushes
  /// away from before the next frame arrives.
  [[nodiscard]] std::optional<math::Bbox> predict_next_bbox(
      int track_id) const;

  [[nodiscard]] const MotConfig& config() const { return config_; }
  [[nodiscard]] std::size_t live_track_count() const { return tracks_.size(); }

 private:
  [[nodiscard]] static TrackView view_of(const BboxTrack& t, bool matched);

  double dt_;
  MotConfig config_;
  DetectorNoiseModel noise_;
  std::vector<BboxTrack> tracks_;
  std::vector<char> matched_flags_;
  int next_id_{1};

  // Per-frame association scratch, reused across updates so the steady-state
  // tracker step performs no cost-matrix or solver allocations.
  math::Matrix cost_scratch_;
  AssignmentScratch assign_scratch_;
  AssignmentResult assign_result_scratch_;
  std::vector<int> det_to_track_;
  std::vector<char> track_matched_;
};

}  // namespace rt::perception
