#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace rt::nn {

/// A feed-forward network: an ordered stack of layers.
///
/// The paper's safety hijacker uses exactly this shape: three hidden dense
/// layers (100, 100, 50) with ReLU activations and 0.1 dropout, and a
/// single linear output predicting the safety potential delta_{t+k}
/// (see `make_safety_hijacker_net`).
class Mlp {
 public:
  /// Caller-owned forward/backward buffers: one activation matrix per layer
  /// boundary plus two ping-pong gradient buffers. After a warm-up pass at
  /// a given batch shape, forwards, backwards and predictions through a
  /// workspace allocate nothing. A workspace belongs to one caller at a
  /// time (the trainer keeps one for its minibatches and validation).
  struct Workspace {
    std::vector<math::Matrix> acts;
    math::Matrix grad_a;
    math::Matrix grad_b;
  };

  Mlp() = default;

  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  /// Training-mode forward: activations land in `ws.acts` (acts[i] is
  /// layer i's input, acts.back() the network output, which is also
  /// returned) for a later `backward_into`. The returned reference is valid
  /// until the next use of `ws`.
  const math::Matrix& forward_into(const math::Matrix& x, Workspace& ws);

  /// Backpropagates dL/d(output) over the activations of the last
  /// `forward_into` on `ws`; parameter gradients accumulate in the layers.
  void backward_into(const math::Matrix& grad_out, Workspace& ws);

  /// Inference-mode forward (no dropout) over an explicit workspace. `x`
  /// may pack B query columns into one (D x B) matrix; column j of the
  /// result is BIT-IDENTICAL to `predict_into` on column j alone, because
  /// every kernel accumulates each output element as an ordered
  /// ascending-k sum regardless of batch width (see math/matrix.hpp).
  /// Mutation-free per the Layer contract, hence safe to call concurrently
  /// on one shared network with one workspace per caller. The returned
  /// reference is valid until the next use of `ws`.
  [[nodiscard]] const math::Matrix& predict_into(const math::Matrix& x,
                                                 Workspace& ws) const;

  /// Installs (nullptr clears) a worker pool on every layer — see
  /// Layer::set_parallel. Results are bit-identical with or without a pool;
  /// the trainer scopes this to a training run.
  void set_parallel(runtime::ThreadPool* pool) {
    for (auto& layer : layers_) layer->set_parallel(pool);
  }

  [[nodiscard]] std::vector<math::Matrix*> parameters();
  [[nodiscard]] std::vector<const math::Matrix*> parameters() const;
  [[nodiscard]] std::vector<math::Matrix*> gradients();
  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers() const {
    return layers_;
  }
  [[nodiscard]] std::size_t parameter_count() const;

  /// Order-sensitive bit-exact digest of every parameter matrix (shape +
  /// each double's bit pattern), FNV-1a like Dataset::content_hash. Golden
  /// tests pin trained networks on this: any change to a single weight bit
  /// changes the hash.
  [[nodiscard]] std::uint64_t content_hash() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds the paper's safety-hijacker architecture (§IV-B): input
/// [delta_t, v_rel(2), a_rel(2), k] -> 100 -> 100 -> 50 -> 1, ReLU
/// activations, dropout 0.1 after each hidden layer.
[[nodiscard]] Mlp make_safety_hijacker_net(stats::Rng& rng,
                                           std::size_t input_dim = 6,
                                           double dropout_rate = 0.1);

}  // namespace rt::nn
