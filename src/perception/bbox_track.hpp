#pragma once

#include <type_traits>

#include "math/bbox.hpp"
#include "perception/detection.hpp"
#include "perception/kalman_filter.hpp"
#include "perception/noise_model.hpp"

namespace rt::perception {

/// One SORT-style tracked object: a Kalman filter over the image-space state
/// [u, v, w, h, vu, vv] (bbox center, size, and pixel velocity) plus the
/// lifecycle bookkeeping (hits / misses / age) the MOT manager needs.
///
/// This per-object KF is the paper's "F" — and the component §III-B singles
/// out as the vulnerable link: it happily integrates biased measurements as
/// long as each one stays within its Gaussian noise budget.
///
/// A plain value: the filter lives in fixed arrays, so spawning, copying
/// and retiring a track never touches the heap (the trackers hold tracks in
/// a vector and the attacker copies whole trackers).
class BboxTrack {
 public:
  /// `noise` is the characterized detector noise for this object's class:
  /// the KF's measurement covariance is calibrated against it (a robust
  /// fraction of the population sigma), exactly the calibration the paper
  /// says production stacks perform — and the calibration the attacker
  /// hides under.
  BboxTrack(int id, const Detection& first, double dt,
            const ClassNoiseModel& noise);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] sim::ActorType cls() const { return cls_; }
  [[nodiscard]] int hits() const { return hits_; }
  [[nodiscard]] int consecutive_misses() const { return consecutive_misses_; }
  [[nodiscard]] int age() const { return age_; }
  /// Ground-truth actor id of the *last matched detection* (bookkeeping).
  [[nodiscard]] sim::ActorId last_truth_id() const { return last_truth_id_; }

  /// Current (post-update or post-predict) bbox estimate.
  [[nodiscard]] math::Bbox bbox() const;
  /// Bbox predicted for this frame before any update — what the Hungarian
  /// matcher associates against, and what the attacker pushes away from.
  [[nodiscard]] math::Bbox predicted_bbox() const { return predicted_; }
  /// Image-space velocity estimate (px/frame-rate units: px/s).
  [[nodiscard]] double vu() const { return kf_.state()[4]; }
  [[nodiscard]] double vv() const { return kf_.state()[5]; }

  /// Advances the KF one frame and caches the predicted bbox.
  void predict();
  /// Consumes the matched detection.
  void update(const Detection& det);
  /// Records a missed frame (no matched detection).
  void mark_missed();

  /// Squared Mahalanobis distance of a candidate measurement (gating/IDS).
  [[nodiscard]] double mahalanobis2(const math::Bbox& z) const;

  /// Innovation of the *last matched* detection against the pre-update
  /// prediction, recorded by `update` for the runtime attack monitors:
  /// squared Mahalanobis distance (-1 while unmatched) and the
  /// size-normalized center displacement per axis (the units the detector
  /// noise is characterized in, Fig. 5).
  [[nodiscard]] double last_innovation_m2() const {
    return last_innovation_m2_;
  }
  [[nodiscard]] double last_innovation_x() const { return last_innovation_x_; }
  [[nodiscard]] double last_innovation_y() const { return last_innovation_y_; }

 private:
  /// The measurement vector for `b`.
  static CvKalmanFilter::Measurement to_measurement(const math::Bbox& b);

  /// Diagonal of the size-proportional measurement covariance for `b`.
  [[nodiscard]] CvKalmanFilter::Measurement measurement_noise(
      const math::Bbox& b) const;

  int id_;
  sim::ActorType cls_;
  double meas_sigma_x_;  ///< robust measurement sigma, fraction of bbox w
  double meas_sigma_y_;  ///< robust measurement sigma, fraction of bbox h
  CvKalmanFilter kf_;
  math::Bbox predicted_;
  int hits_{1};
  int consecutive_misses_{0};
  int age_{1};
  sim::ActorId last_truth_id_{-1};
  double last_innovation_m2_{-1.0};
  double last_innovation_x_{0.0};
  double last_innovation_y_{0.0};
};

static_assert(std::is_trivially_copyable_v<BboxTrack>,
              "a track birth or tracker copy must not allocate");

}  // namespace rt::perception
