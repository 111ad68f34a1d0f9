#include "nn/layer.hpp"

#include <cmath>
#include <stdexcept>

namespace rt::nn {

Dense::Dense(std::size_t in, std::size_t out, stats::Rng& rng)
    : Dense(in, out) {
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (double& v : w_.data()) v = rng.normal(0.0, scale);
}

Dense::Dense(std::size_t in, std::size_t out)
    : w_(out, in), b_(out, 1), gw_(out, in), gb_(out, 1) {}

std::uint64_t dropout_threshold(double keep) {
  if (!(keep > 0.0 && keep < 1.0)) {
    throw std::invalid_argument("dropout_threshold: keep must be in (0, 1)");
  }
  const auto kept = [keep](std::uint64_t word) {
    double x = static_cast<double>(word) * 0x1p-64;
    if (x >= 1.0) x = std::nextafter(1.0, 0.0);
    return x < keep;
  };
  // Bisect for the smallest rejected word. Word 0 (x = 0) is kept and the
  // top word (x clamped to 1 - 2^-53 >= keep) is not.
  std::uint64_t lo = 0;
  std::uint64_t hi = UINT64_MAX;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (kept(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

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
  // Raw restrict pointers (no aliasing to rule out) and the 0/1 factor as
  // its own value (no per-element branch) let GCC vectorise the loop; each
  // element keeps the same product.
  const double* __restrict xd = x_in.data().data();
  const double* __restrict gd = grad_out.data().data();
  double* __restrict od = grad_in.data().data();
  const std::size_t n = grad_out.data().size();
  for (std::size_t i = 0; i < n; ++i) {
    const double pass = xd[i] > 0.0 ? 1.0 : 0.0;
    od[i] = gd[i] * pass;
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
  // Inside (0, 1) each unit takes one engine word and is kept exactly when
  // Rng::bernoulli(keep) would keep it; outside it Rng::bernoulli draws
  // nothing and returns a constant (or throws on a NaN rate).
  const bool draws = keep > 0.0 && keep < 1.0;
  const bool constant = !draws && rng_.bernoulli(keep);
  const std::uint64_t threshold = draws ? dropout_threshold(keep) : 0;
  auto& engine = rng_.engine();
  for (std::size_t i = 0; i < xd.size(); ++i) {
    const bool kept = draws ? engine() < threshold : constant;
    // Inverted dropout: kept units are scaled by 1/keep so inference needs
    // no rescaling.
    md[i] = kept ? 1.0 / keep : 0.0;
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
