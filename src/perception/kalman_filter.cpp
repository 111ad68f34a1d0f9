#include "perception/kalman_filter.hpp"

#include "math/matrix.hpp"

namespace rt::perception {

namespace {

/// The exact value a skip-zero kernel accumulates when an element rides
/// through a unit row: `0.0 + 1.0 * v`. Every nonzero bit pattern passes
/// unchanged; -0.0 normalizes to +0.0, exactly as the generic sum does.
inline double through_unit(double v) { return v != 0.0 ? v : 0.0; }

}  // namespace

CvKalmanFilter::CvKalmanFilter(double dt, const State& q_diag,
                               const State& x0, const State& p0_diag,
                               const Measurement& r_diag)
    : dt_(dt), q_(q_diag), r_(r_diag), x_(x0) {
  for (std::size_t i = 0; i < 6; ++i) p_[i * 6 + i] = p0_diag[i];
}

void CvKalmanFilter::predict() {
  // F P F^T + Q for F = I + dt couplings. Bit-identity: per output element
  // this replays the dense kernels' term sequence — each F*[.] row k-sum
  // touches only k = i (weight 1.0) and, for rows 0/1, the coupling
  // column; the [.]*F^T column j-sum likewise only k = j plus the
  // coupling. Terms the dense loop skips (exact-zero lhs) or that
  // contribute v*0.0 (rhs structural zeros) provably never change the
  // accumulator value: adding +-0.0 to a running sum only normalizes a zero
  // accumulator to +0.0, which `through_unit` reproduces. Q's structural
  // zeros are added like the dense `+= Q`.
  const double f = dt_;
  double* x = x_.data();
  const double nx0 = through_unit(x[0]) + f * x[4];
  const double nx1 = through_unit(x[1]) + f * x[5];
  x[0] = nx0;
  x[1] = nx1;
  for (std::size_t i = 2; i < 6; ++i) x[i] = through_unit(x[i]);

  double* p = p_.data();
  const double* p4 = p + 4 * 6;
  const double* p5 = p + 5 * 6;
  double fp[6];
  for (std::size_t i = 0; i < 6; ++i) {
    double* pi = p + i * 6;
    // Row i of F*P (reads rows i, 4, 5 of P — rows 4/5 are only
    // overwritten on their own iteration, after this read).
    for (std::size_t j = 0; j < 6; ++j) {
      double v = through_unit(pi[j]);
      if (i == 0) v += f * p4[j];
      if (i == 1) v += f * p5[j];
      fp[j] = v;
    }
    // Row i of (F P) F^T + Q, written over P in place.
    double c0 = through_unit(fp[0]);
    if (fp[4] != 0.0) c0 += fp[4] * f;
    double c1 = through_unit(fp[1]);
    if (fp[5] != 0.0) c1 += fp[5] * f;
    pi[0] = c0 + (i == 0 ? q_[0] : 0.0);
    pi[1] = c1 + (i == 1 ? q_[1] : 0.0);
    for (std::size_t j = 2; j < 6; ++j) {
      pi[j] = through_unit(fp[j]) + (i == j ? q_[i] : 0.0);
    }
  }
}

double CvKalmanFilter::innovation_m2_(const Measurement& y,
                                      std::array<double, 16>& s_inv) const {
  // S = H P H^T + R: the selection rows reduce H P H^T to `through_unit`
  // copies of P's top-left 4x4 block; R's structural zeros are added like
  // the dense `+= R`.
  std::array<double, 16> s;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      s[i * 4 + j] = through_unit(p_[i * 6 + j]) + (i == j ? r_[i] : 0.0);
    }
  }
  math::detail::invert_fixed<4>(s.data(), s_inv.data());
  // y^T S^-1 (the dense a^T * b kernel: zero-filled sums over ascending k,
  // skipping exact-zero y), then (y^T S^-1) y (ascending k, skipping
  // exact-zero lhs).
  double ys[4] = {};
  for (std::size_t k = 0; k < 4; ++k) {
    const double v = y[k];
    if (v == 0.0) continue;
    for (std::size_t j = 0; j < 4; ++j) ys[j] += v * s_inv[k * 4 + j];
  }
  double m2 = 0.0;
  math::detail::multiply_fixed<1, 4, 1>(ys, y.data(), &m2);
  return m2;
}

void CvKalmanFilter::update(const Measurement& z) {
  // Measurement update for H = [I4 | 0]. The selection rows collapse
  // H x / P H^T / K H to `through_unit` copies of the state/covariance/gain
  // blocks — exactly what the dense skip-zero kernels accumulate element by
  // element (see predict for the +-0.0 argument). The dense remainders
  // (S^-1 products, (I - K H) P) run the fixed kernels in the same order.
  double* x = x_.data();
  const double* p = p_.data();
  // y = z - H x
  Measurement y;
  for (std::size_t i = 0; i < 4; ++i) y[i] = z[i] - through_unit(x[i]);
  std::array<double, 16> s_inv;
  last_update_m2_ = innovation_m2_(y, s_inv);
  // K = (P H^T) S^-1: P H^T is the left 6x4 block of P.
  double pht[6 * 4];
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      pht[i * 4 + j] = through_unit(p[i * 6 + j]);
    }
  }
  double k[6 * 4];
  math::detail::multiply_fixed<6, 4, 4>(pht, s_inv.data(), k);
  // x <- x + K y
  double ky[6];
  math::detail::multiply_fixed<6, 4, 1>(k, y.data(), ky);
  for (std::size_t i = 0; i < 6; ++i) x[i] += ky[i];
  // P <- (I - K H) P, with K H = [K | 0] through the selection columns.
  double ikh[6 * 6];
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ikh[i * 6 + j] = (i == j ? 1.0 : 0.0) - through_unit(k[i * 4 + j]);
    }
    for (std::size_t j = 4; j < 6; ++j) {
      ikh[i * 6 + j] = (i == j ? 1.0 : 0.0) - 0.0;
    }
  }
  Covariance next;
  math::detail::multiply_fixed<6, 6, 6>(ikh, p, next.data());
  p_ = next;
}

double CvKalmanFilter::mahalanobis2(const Measurement& z) const {
  Measurement y;
  for (std::size_t i = 0; i < 4; ++i) y[i] = z[i] - through_unit(x_[i]);
  std::array<double, 16> s_inv;
  return innovation_m2_(y, s_inv);
}

}  // namespace rt::perception
