#include "nn/layer.hpp"

#include <cmath>

namespace rt::nn {

Dense::Dense(std::size_t in, std::size_t out, stats::Rng& rng)
    : Dense(in, out) {
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (double& v : w_.data()) v = rng.normal(0.0, scale);
}

Dense::Dense(std::size_t in, std::size_t out)
    : w_(out, in), b_(out, 1), gw_(out, in), gb_(out, 1) {}

void Dense::forward_into(const math::Matrix& x, math::Matrix& y,
                         bool /*training*/) {
  math::affine_into(w_, x, b_, y);
}

void Dense::backward_into(const math::Matrix& x_in,
                          const math::Matrix& grad_out,
                          math::Matrix& grad_in, math::Matrix& scratch) {
  // Both products run on the register-tiled multiply_into over a
  // materialized transpose: gw = grad * x^T, grad_in = W^T * grad.
  math::transpose_into(x_in, scratch);
  math::multiply_into(grad_out, scratch, gw_);
  gb_.resize(b_.rows(), 1);
  for (std::size_t i = 0; i < grad_out.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < grad_out.cols(); ++j) s += grad_out(i, j);
    gb_(i, 0) = s;
  }
  math::transpose_into(w_, scratch);
  math::multiply_into(scratch, grad_out, grad_in);
}

void Relu::forward_into(const math::Matrix& x, math::Matrix& y,
                        bool training) {
  y.resize(x.rows(), x.cols());
  const auto xd = x.data();
  const auto yd = y.data();
  if (!training) {
    // Inference clamps only strict negatives (preserves -0.0 bit patterns,
    // exactly like the historical copy-then-clamp loop).
    for (std::size_t i = 0; i < xd.size(); ++i) {
      yd[i] = xd[i] < 0.0 ? 0.0 : xd[i];
    }
    return;
  }
  // Training keeps strict positives (a -0.0 input becomes +0.0, matching
  // the historical mask-building loop bit for bit).
  for (std::size_t i = 0; i < xd.size(); ++i) {
    yd[i] = xd[i] > 0.0 ? xd[i] : 0.0;
  }
}

void Relu::backward_into(const math::Matrix& x_in,
                         const math::Matrix& grad_out,
                         math::Matrix& grad_in, math::Matrix& /*scratch*/) {
  grad_in.resize(grad_out.rows(), grad_out.cols());
  const auto xd = x_in.data();
  const auto gd = grad_out.data();
  const auto od = grad_in.data();
  for (std::size_t i = 0; i < gd.size(); ++i) {
    od[i] = gd[i] * (xd[i] > 0.0 ? 1.0 : 0.0);
  }
}

void Dropout::forward_into(const math::Matrix& x, math::Matrix& y,
                           bool training) {
  if (!training) {
    y = x;
    return;
  }
  if (rate_ <= 0.0) {
    mask_ = math::Matrix();
    y = x;
    return;
  }
  mask_.resize(x.rows(), x.cols());
  y.resize(x.rows(), x.cols());
  const double keep = 1.0 - rate_;
  const auto xd = x.data();
  const auto yd = y.data();
  const auto md = mask_.data();
  for (std::size_t i = 0; i < xd.size(); ++i) {
    // Inverted dropout: kept units are scaled by 1/keep so inference needs
    // no rescaling.
    md[i] = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
    yd[i] = xd[i] * md[i];
  }
}

void Dropout::backward_into(const math::Matrix& /*x_in*/,
                            const math::Matrix& grad_out,
                            math::Matrix& grad_in,
                            math::Matrix& /*scratch*/) {
  if (mask_.empty()) {
    grad_in = grad_out;
    return;
  }
  grad_in.resize(grad_out.rows(), grad_out.cols());
  const auto gd = grad_out.data();
  const auto md = mask_.data();
  const auto od = grad_in.data();
  for (std::size_t i = 0; i < gd.size(); ++i) od[i] = gd[i] * md[i];
}

}  // namespace rt::nn
