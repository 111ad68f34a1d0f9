#pragma once

#include "math/matrix.hpp"

namespace rt::nn {

/// Mean-squared-error loss (the paper's Eq. 3: mean L2 distance between the
/// predicted and ground-truth safety potential).
struct MseLoss {
  /// L = mean over samples of ||pred_j - target_j||^2.
  [[nodiscard]] static double value(const math::Matrix& pred,
                                    const math::Matrix& target) {
    double s = 0.0;
    for (std::size_t i = 0; i < pred.rows(); ++i) {
      for (std::size_t j = 0; j < pred.cols(); ++j) {
        const double d = pred(i, j) - target(i, j);
        s += d * d;
      }
    }
    return pred.cols() > 0 ? s / static_cast<double>(pred.cols()) : 0.0;
  }

  /// dL/dpred for the batch into a caller-owned buffer (allocation-free at
  /// steady state).
  static void gradient_into(const math::Matrix& pred,
                            const math::Matrix& target, math::Matrix& g) {
    const double scale =
        pred.cols() > 0 ? 2.0 / static_cast<double>(pred.cols()) : 0.0;
    g.resize(pred.rows(), pred.cols());
    const auto pd = pred.data();
    const auto td = target.data();
    const auto gd = g.data();
    for (std::size_t i = 0; i < pd.size(); ++i) {
      gd[i] = (pd[i] - td[i]) * scale;
    }
  }

  /// Mean absolute error — the "prediction within X meters" metric of
  /// §IV-B / Fig. 8.
  [[nodiscard]] static double mae(const math::Matrix& pred,
                                  const math::Matrix& target) {
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < pred.rows(); ++i) {
      for (std::size_t j = 0; j < pred.cols(); ++j) {
        s += pred(i, j) > target(i, j) ? pred(i, j) - target(i, j)
                                       : target(i, j) - pred(i, j);
        ++n;
      }
    }
    return n > 0 ? s / static_cast<double>(n) : 0.0;
  }
};

}  // namespace rt::nn
