#include "nn/frozen_mlp.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/v4.hpp"

namespace rt::nn {

namespace {

using math::detail::load4;
using math::detail::store4;
using math::detail::V4;

/// Outputs [0, 4 * B) of one stage, starting at `w` (row k of the
/// transposed weights at w + k * stride) and `bias`. Each lane is the
/// ordered sum multiply_into builds for its element — acc starts at +0.0,
/// terms added in ascending k, exact-zero weights skipped — then the bias
/// add, then the inference ReLU (clamps strict negatives only, so -0.0
/// survives as in Relu::forward_into).
template <std::size_t B>
void stage_block(const double* w, std::size_t stride, const double* bias,
                 const double* x, std::size_t in, bool relu, double* y) {
  V4 acc[B] = {};
  for (std::size_t k = 0; k < in; ++k) {
    const double xk = x[k];
    const double* row = w + k * stride;
    for (std::size_t b = 0; b < B; ++b) {
      const V4 wv = load4(row + 4 * b);
      acc[b] = wv != 0.0 ? acc[b] + wv * xk : acc[b];
    }
  }
  for (std::size_t b = 0; b < B; ++b) {
    V4 v = acc[b] + load4(bias + 4 * b);
    if (relu) v = v < 0.0 ? V4{} : v;
    store4(y + 4 * b, v);
  }
}

}  // namespace

FrozenMlp::FrozenMlp(const Mlp& net) {
  // First pass: validate and lay out the stages, so the weights take one
  // exactly-sized allocation.
  std::vector<const Dense*> dense_layers;
  std::size_t weight_count = 0;
  std::size_t bias_count = 0;
  for (const auto& layer : net.layers()) {
    if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
      Stage st;
      st.in = dense->input_size();
      st.out = dense->output_size();
      if (st.in > kMaxWidth || st.out > kMaxWidth) {
        throw std::invalid_argument("FrozenMlp: layer wider than kMaxWidth");
      }
      if (!stages_.empty() && stages_.back().out != st.in) {
        throw std::invalid_argument("FrozenMlp: layer shapes do not chain");
      }
      st.padded_out = (st.out + 3) / 4 * 4;
      st.offset = weight_count;
      st.bias_offset = bias_count;
      weight_count += st.in * st.padded_out;
      bias_count += st.padded_out;
      stages_.push_back(st);
      dense_layers.push_back(dense);
    } else if (dynamic_cast<const Relu*>(layer.get()) != nullptr) {
      if (stages_.empty()) {
        throw std::invalid_argument("FrozenMlp: ReLU before the first Dense");
      }
      stages_.back().relu = true;
    } else if (!layer->inference_identity()) {
      throw std::invalid_argument("FrozenMlp: unsupported layer " +
                                  layer->kind());
    }
  }
  if (stages_.empty()) {
    throw std::invalid_argument("FrozenMlp: network has no Dense layer");
  }
  // Second pass: transpose each Dense into its zero-padded slot.
  weights_.assign(weight_count, 0.0);
  biases_.assign(bias_count, 0.0);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    const math::Matrix& w = dense_layers[s]->weights();
    const math::Matrix& b = dense_layers[s]->bias();
    for (std::size_t i = 0; i < st.out; ++i) {
      for (std::size_t k = 0; k < st.in; ++k) {
        weights_[st.offset + k * st.padded_out + i] = w(i, k);
      }
      biases_[st.bias_offset + i] = b(i, 0);
    }
  }
}

std::size_t FrozenMlp::input_size() const {
  return stages_.empty() ? 0 : stages_.front().in;
}

std::size_t FrozenMlp::output_size() const {
  return stages_.empty() ? 0 : stages_.back().out;
}

void FrozenMlp::predict(std::span<const double> x, std::span<double> y) const {
  if (x.size() != input_size() || y.size() != output_size()) {
    throw std::invalid_argument("FrozenMlp::predict: shape mismatch");
  }
  alignas(32) double buf[2][kMaxWidth];
  const double* cur = x.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    const double* w = weights_.data() + st.offset;
    const double* bias = biases_.data() + st.bias_offset;
    double* out = buf[s % 2];
    std::size_t o = 0;
    for (; o + 16 <= st.padded_out; o += 16) {
      stage_block<4>(w + o, st.padded_out, bias + o, cur, st.in, st.relu,
                     out + o);
    }
    for (; o < st.padded_out; o += 4) {
      stage_block<1>(w + o, st.padded_out, bias + o, cur, st.in, st.relu,
                     out + o);
    }
    cur = out;
  }
  std::copy_n(cur, y.size(), y.begin());
}

}  // namespace rt::nn
