#pragma once

#include <memory>
#include <string>
#include <vector>

#include "math/matrix.hpp"
#include "stats/rng.hpp"

namespace rt::nn {

/// Base class of all network layers.
///
/// Data layout: activations are (features x batch) matrices; a batch of B
/// input vectors of dimension D is a D x B matrix.
///
/// The primitives are destination-passing (`forward_into` / `backward_into`)
/// so the trainer's minibatch loop and batch evaluation run over
/// caller-owned workspace buffers with zero per-call heap allocations (see
/// Mlp::Workspace). Single-query oracle inference runs on a FrozenMlp copy
/// instead.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass into `y` (resized in place). `training` enables
  /// stochastic behaviour (dropout) and the state `backward_into` reads.
  /// Contract: with `training == false` a layer must not mutate any member
  /// state — inference over a shared network (e.g. one oracle queried by
  /// many parallel campaign runs) relies on read-only forwards being
  /// concurrency-safe. `y` must not alias `x`.
  virtual void forward_into(const math::Matrix& x, math::Matrix& y,
                            bool training) = 0;

  /// Backward pass into `grad_in` (resized in place): receives this layer's
  /// forward input `x_in` and dL/d(output), writes dL/d(input), and
  /// accumulates parameter gradients internally. `scratch` is caller-owned
  /// working storage (the dense layer materializes its transposed operands
  /// there), so a deployed network carries no backward-only buffers.
  /// Neither `grad_in` nor `scratch` may alias an input or each other.
  virtual void backward_into(const math::Matrix& x_in,
                             const math::Matrix& grad_out,
                             math::Matrix& grad_in,
                             math::Matrix& scratch) = 0;

  /// True when the layer's inference-mode forward is an exact copy of its
  /// input (dropout). `Mlp::predict_into` skips such layers, feeding the
  /// previous activation straight to the next layer — the values are
  /// bit-identical, the copy just never happens.
  [[nodiscard]] virtual bool inference_identity() const { return false; }

  /// Trainable parameters and their gradients (parallel vectors).
  virtual std::vector<math::Matrix*> parameters() { return {}; }
  virtual std::vector<math::Matrix*> gradients() { return {}; }

  [[nodiscard]] virtual std::string kind() const = 0;
};

/// Fully-connected layer: y = W x + b.
class Dense : public Layer {
 public:
  /// He-normal initialization (suits the ReLU activations the paper uses).
  Dense(std::size_t in, std::size_t out, stats::Rng& rng);
  /// Uninitialized (weights loaded afterwards, e.g. by the deserializer).
  Dense(std::size_t in, std::size_t out);

  void forward_into(const math::Matrix& x, math::Matrix& y,
                    bool training) override;
  void backward_into(const math::Matrix& x_in, const math::Matrix& grad_out,
                     math::Matrix& grad_in, math::Matrix& scratch) override;
  std::vector<math::Matrix*> parameters() override { return {&w_, &b_}; }
  std::vector<math::Matrix*> gradients() override { return {&gw_, &gb_}; }
  [[nodiscard]] std::string kind() const override { return "dense"; }

  [[nodiscard]] std::size_t input_size() const { return w_.cols(); }
  [[nodiscard]] std::size_t output_size() const { return w_.rows(); }
  [[nodiscard]] math::Matrix& weights() { return w_; }
  [[nodiscard]] const math::Matrix& weights() const { return w_; }
  [[nodiscard]] math::Matrix& bias() { return b_; }
  [[nodiscard]] const math::Matrix& bias() const { return b_; }

 private:
  math::Matrix w_, b_, gw_, gb_;
};

/// Rectified linear unit.
class Relu : public Layer {
 public:
  void forward_into(const math::Matrix& x, math::Matrix& y,
                    bool training) override;
  void backward_into(const math::Matrix& x_in, const math::Matrix& grad_out,
                     math::Matrix& grad_in, math::Matrix& scratch) override;
  [[nodiscard]] std::string kind() const override { return "relu"; }
};

/// Inverted dropout (active only during training). The paper uses a 0.1
/// dropout rate in the safety hijacker's network.
class Dropout : public Layer {
 public:
  Dropout(double rate, stats::Rng rng) : rate_(rate), rng_(rng) {}

  void forward_into(const math::Matrix& x, math::Matrix& y,
                    bool training) override;
  void backward_into(const math::Matrix& x_in, const math::Matrix& grad_out,
                     math::Matrix& grad_in, math::Matrix& scratch) override;
  [[nodiscard]] std::string kind() const override { return "dropout"; }
  [[nodiscard]] bool inference_identity() const override { return true; }
  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
  stats::Rng rng_;
  math::Matrix mask_;
};

}  // namespace rt::nn
