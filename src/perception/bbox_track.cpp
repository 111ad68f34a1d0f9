#include "perception/bbox_track.hpp"

#include <algorithm>

namespace rt::perception {

namespace {

constexpr double kMeasSigmaFloorPx = 2.0;
/// Robust fraction of the population sigma used as the KF's measurement
/// sigma (the population fit includes outliers; the filter calibrates to
/// the typical noise and *gates* the tail — see MotTracker).
constexpr double kRobustFraction = 0.35;
constexpr double kMeasSigmaFracMin = 0.06;
constexpr double kMeasSigmaFracMax = 0.50;

constexpr double kPosProcessSigma = 4.0;   // px / frame
constexpr double kSizeProcessSigma = 2.5;  // px / frame
constexpr double kVelProcessSigma = 14.0;  // px/s / frame

}  // namespace

CvKalmanFilter::Measurement BboxTrack::measurement_noise(
    const math::Bbox& b) const {
  const double su = std::max(kMeasSigmaFloorPx, meas_sigma_x_ * b.w);
  const double sv = std::max(kMeasSigmaFloorPx, meas_sigma_y_ * b.h);
  const double sw = std::max(kMeasSigmaFloorPx, 0.08 * b.w);
  const double sh = std::max(kMeasSigmaFloorPx, 0.08 * b.h);
  return {su * su, sv * sv, sw * sw, sh * sh};
}

CvKalmanFilter::Measurement BboxTrack::to_measurement(const math::Bbox& b) {
  return {b.cx, b.cy, b.w, b.h};
}

BboxTrack::BboxTrack(int id, const Detection& first, double dt,
                     const ClassNoiseModel& noise)
    : id_(id),
      cls_(first.cls),
      meas_sigma_x_(std::clamp(kRobustFraction * noise.center_x.sigma,
                               kMeasSigmaFracMin, kMeasSigmaFracMax)),
      meas_sigma_y_(std::clamp(kRobustFraction * noise.center_y.sigma,
                               kMeasSigmaFracMin, kMeasSigmaFracMax)),
      predicted_(first.bbox),
      last_truth_id_(first.truth_id) {
  // State: [u, v, w, h, vu, vv]; constant-velocity center, random-walk size.
  const double qp = kPosProcessSigma * kPosProcessSigma;
  const double qs = kSizeProcessSigma * kSizeProcessSigma;
  const double qv = kVelProcessSigma * kVelProcessSigma;
  // Generous initial velocity uncertainty: the first few updates lock it in.
  kf_ = CvKalmanFilter(dt, {qp, qp, qs, qs, qv, qv},
                       {first.bbox.cx, first.bbox.cy, first.bbox.w,
                        first.bbox.h, 0.0, 0.0},
                       {25.0, 25.0, 25.0, 25.0, 2500.0, 2500.0},
                       measurement_noise(first.bbox));
}

math::Bbox BboxTrack::bbox() const {
  const auto& x = kf_.state();
  return {x[0], x[1], std::max(1.0, x[2]), std::max(1.0, x[3])};
}

void BboxTrack::predict() {
  kf_.predict();
  ++age_;
  predicted_ = bbox();
}

void BboxTrack::update(const Detection& det) {
  // Refresh the size-proportional measurement noise before the update.
  kf_.set_measurement_noise(measurement_noise(det.bbox));
  // Record the pre-update innovation for the runtime attack monitors. Pure
  // observation: the Mahalanobis distance falls out of the update's own
  // innovation/S^-1 computation (see
  // CvKalmanFilter::last_update_mahalanobis2), so the filter state (and
  // every pinned golden) is unchanged and the bookkeeping costs one 4x4
  // quadratic form.
  last_innovation_x_ =
      (det.bbox.cx - predicted_.cx) / std::max(1.0, det.bbox.w);
  last_innovation_y_ =
      (det.bbox.cy - predicted_.cy) / std::max(1.0, det.bbox.h);
  kf_.update(to_measurement(det.bbox));
  last_innovation_m2_ = kf_.last_update_mahalanobis2();
  ++hits_;
  consecutive_misses_ = 0;
  last_truth_id_ = det.truth_id;
}

void BboxTrack::mark_missed() {
  ++consecutive_misses_;
  last_innovation_m2_ = -1.0;
  last_innovation_x_ = 0.0;
  last_innovation_y_ = 0.0;
}

double BboxTrack::mahalanobis2(const math::Bbox& z) const {
  return kf_.mahalanobis2(to_measurement(z));
}

}  // namespace rt::perception
