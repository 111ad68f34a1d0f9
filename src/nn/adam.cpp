#include "nn/adam.hpp"

#include <cmath>
#include <stdexcept>

namespace rt::nn {

void Adam::step(const std::vector<math::Matrix*>& params,
                const std::vector<math::Matrix*>& grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("Adam::step: params/grads size mismatch");
  }
  if (m_.empty()) {
    for (auto* p : params) {
      m_.emplace_back(p->rows(), p->cols());
      v_.emplace_back(p->rows(), p->cols());
    }
  }
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    // Raw restrict pointers let GCC vectorise the update (std::sqrt too:
    // adam.cpp builds with -fno-math-errno, which changes no value); each
    // element keeps the same expression.
    const std::size_t n = params[i]->data().size();
    double* __restrict p = params[i]->data().data();
    const double* __restrict g = grads[i]->data().data();
    double* __restrict m = m_[i].data().data();
    double* __restrict v = v_[i].data().data();
    for (std::size_t j = 0; j < n; ++j) {
      m[j] = b1 * m[j] + (1.0 - b1) * g[j];
      v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
      const double mhat = m[j] / bias1;
      const double vhat = v[j] / bias2;
      p[j] -= config_.lr * mhat / (std::sqrt(vhat) + config_.eps);
    }
  }
}

}  // namespace rt::nn
