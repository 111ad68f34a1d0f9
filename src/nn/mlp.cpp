#include "nn/mlp.hpp"

#include "stats/hash.hpp"

namespace rt::nn {

const math::Matrix& Mlp::forward_into(const math::Matrix& x, Workspace& ws) {
  ws.acts.resize(layers_.size() + 1);
  ws.acts[0] = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward_into(ws.acts[i], ws.acts[i + 1], /*training=*/true);
  }
  return ws.acts.back();
}

void Mlp::backward_into(const math::Matrix& grad_out, Workspace& ws) {
  const math::Matrix* g = &grad_out;
  math::Matrix* dst = &ws.grad_a;
  math::Matrix* other = &ws.grad_b;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward_into(ws.acts[i], *g, *dst);
    g = dst;
    std::swap(dst, other);
  }
}

const math::Matrix& Mlp::predict_into(const math::Matrix& x,
                                      Workspace& ws) const {
  // Inference: no backward will read ws.acts, so the input copy into
  // acts[0] is skipped and identity layers (dropout) forward their input
  // pointer instead of copying a matrix per layer. Bit-identical values.
  // Inference-mode layer forwards mutate nothing (Layer contract).
  ws.acts.resize(layers_.size() + 1);
  const math::Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->inference_identity()) continue;
    layers_[i]->forward_into(*cur, ws.acts[i + 1], false);
    cur = &ws.acts[i + 1];
  }
  if (cur == &x) {
    // Empty (or all-identity) stack: keep the "valid until next use of
    // ws" lifetime contract by materializing the pass-through.
    ws.acts[0] = x;
    return ws.acts[0];
  }
  return *cur;
}

std::vector<math::Matrix*> Mlp::parameters() {
  std::vector<math::Matrix*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<const math::Matrix*> Mlp::parameters() const {
  std::vector<const math::Matrix*> out;
  for (const auto& layer : layers_) {
    for (const auto* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<math::Matrix*> Mlp::gradients() {
  std::vector<math::Matrix*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto* p : parameters()) n += p->rows() * p->cols();
  return n;
}

std::uint64_t Mlp::content_hash() const {
  std::uint64_t h = stats::kFnv1aOffset;
  for (const auto* p : parameters()) {
    h = stats::fnv1a_u64(h, p->rows());
    h = stats::fnv1a_u64(h, p->cols());
    for (const double v : p->data()) h = stats::fnv1a_double(h, v);
  }
  return h;
}

Mlp make_safety_hijacker_net(stats::Rng& rng, std::size_t input_dim,
                             double dropout_rate) {
  Mlp net;
  const std::size_t hidden[] = {100, 100, 50};
  std::size_t in = input_dim;
  std::uint64_t stream = 101;
  for (std::size_t h : hidden) {
    net.add(std::make_unique<Dense>(in, h, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<Dropout>(dropout_rate, rng.derive(stream++)));
    in = h;
  }
  net.add(std::make_unique<Dense>(in, 1, rng));
  return net;
}

}  // namespace rt::nn
