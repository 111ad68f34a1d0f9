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
  /// a given batch shape, forwards and backwards through a workspace
  /// allocate nothing. A workspace belongs to one caller at a time (the
  /// trainer keeps one; `predict` uses a thread-local one).
  struct Workspace {
    std::vector<math::Matrix> acts;
    math::Matrix grad_a;
    math::Matrix grad_b;
  };

  Mlp() = default;

  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  /// Forward pass over the whole stack (allocating wrapper; layers cache
  /// their inputs when `training` so `backward` works afterwards).
  math::Matrix forward(const math::Matrix& x, bool training);

  /// Workspace forward: activations land in `ws.acts` (acts[i] is layer i's
  /// input, acts.back() the network output, which is also returned). The
  /// returned reference is valid until the next use of `ws`.
  const math::Matrix& forward_into(const math::Matrix& x, Workspace& ws,
                                   bool training);

  /// Backpropagates dL/d(output); parameter gradients accumulate in layers.
  void backward(const math::Matrix& grad_out);

  /// Workspace backward over the activations of the last `forward_into`
  /// on `ws`.
  void backward_into(const math::Matrix& grad_out, Workspace& ws);

  /// Inference-mode forward (no dropout, no caching). Mutation-free per
  /// the Layer contract, hence safe to call concurrently from multiple
  /// threads on one shared network. Runs over a thread-local workspace
  /// that is shared by every Mlp on the calling thread — zero allocations
  /// at steady state, but the returned reference is invalidated by the
  /// next `predict` on *any* network on this thread: copy the result (or
  /// use `predict_into` with your own workspace) before invoking another
  /// network.
  [[nodiscard]] const math::Matrix& predict(const math::Matrix& x) const;

  /// Inference-mode forward over an explicit workspace (what
  /// `forward_into` runs when not training).
  [[nodiscard]] const math::Matrix& predict_into(const math::Matrix& x,
                                                 Workspace& ws) const;

  /// Batched inference: `x` packs B query columns into one (D x B) matrix
  /// and the whole stack runs as matrix-matrix products — one kernel call
  /// per layer for the entire batch instead of B matrix-vector forwards.
  /// Column j of the result is BIT-IDENTICAL to `predict` on column j
  /// alone: every kernel accumulates each output element as an ordered
  /// ascending-k sum with the same skip-exact-zero shortcut regardless of
  /// batch width (see the kernel contract in math/matrix.hpp), so batching
  /// is a pure throughput lever, never a semantics change. Same
  /// thread-local workspace and concurrency contract as `predict`.
  [[nodiscard]] const math::Matrix& predict_batch(
      const math::Matrix& x) const {
    return predict(x);
  }

  /// Batched inference over an explicit workspace (zero allocations once
  /// `ws` has seen the batch shape).
  [[nodiscard]] const math::Matrix& predict_batch_into(
      const math::Matrix& x, Workspace& ws) const {
    return predict_into(x, ws);
  }

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
