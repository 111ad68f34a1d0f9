#pragma once

#include <array>

namespace rt::perception {

/// Constant-velocity Kalman filter of the bbox tracker ("F" in Fig. 1).
///
/// State x = [u, v, w, h, vu, vv] (bbox center, size, pixel velocity) and
/// measurement z = [u, v, w, h], under the fixed model
///   F = I6 plus the couplings F(0,4) = F(1,5) = dt,   H = [I4 | 0],
/// with diagonal process noise Q and diagonal measurement noise R:
///   predict:  x <- F x,          P <- F P F^T + Q
///   update:   y = z - H x,       S = H P H^T + R
///             K = P H^T S^-1,    x <- x + K y,   P <- (I - K H) P
///
/// The paper's threat analysis (§III-B) hinges on exactly this machinery:
/// the KF assumes zero-mean Gaussian measurement noise, so an adversary who
/// injects *biased* noise within +-1 sigma drags the state estimate without
/// ever producing an innovation large enough to flag.
///
/// The shapes are types, so the filter is a plain value over `std::array`:
/// construction and copies allocate nothing. Every step replays, per
/// element, the term sequence of the dense skip-exact-zero kernels in
/// math/matrix.hpp on the explicit F and H matrices, so results are bit-
/// identical to that generic algebra (derivation comments in the .cpp).
class CvKalmanFilter {
 public:
  using State = std::array<double, 6>;
  using Measurement = std::array<double, 4>;
  using Covariance = std::array<double, 36>;  ///< row-major 6 x 6

  CvKalmanFilter() = default;
  /// Diagonals of Q, P0 and R; x0 is the initial state.
  CvKalmanFilter(double dt, const State& q_diag, const State& x0,
                 const State& p0_diag, const Measurement& r_diag);

  /// Time update. Safe to call repeatedly (coasting through missed frames).
  void predict();

  /// Measurement update with z under the current R.
  void update(const Measurement& z);

  /// Squared Mahalanobis distance of a measurement under the innovation
  /// covariance S = H P H^T + R. Used by gating logic and by the IDS.
  [[nodiscard]] double mahalanobis2(const Measurement& z) const;

  /// Squared Mahalanobis distance of the measurement consumed by the last
  /// `update` (-1 before the first). Recorded inside the update from the
  /// already-computed innovation and S^-1 — the same sequence as
  /// `mahalanobis2`, so it is bitwise identical to calling
  /// `mahalanobis2(z)` immediately before the update. Consumed by the
  /// runtime attack monitors via BboxTrack/TrackView.
  [[nodiscard]] double last_update_mahalanobis2() const {
    return last_update_m2_;
  }

  [[nodiscard]] const State& state() const { return x_; }

  /// Replaces the diagonal of R. Trackers whose measurement noise scales
  /// with the object (bbox-size-proportional pixel noise) refresh it before
  /// each update.
  void set_measurement_noise(const Measurement& r_diag) { r_ = r_diag; }

 private:
  /// y^T S^-1 y for innovation y under the current P and R; leaves S^-1 in
  /// `s_inv` (row-major 4 x 4) for the gain.
  [[nodiscard]] double innovation_m2_(const Measurement& y,
                                      std::array<double, 16>& s_inv) const;

  double dt_{0.0};
  State q_{};
  Measurement r_{};
  State x_{};
  Covariance p_{};
  double last_update_m2_{-1.0};
};

}  // namespace rt::perception
