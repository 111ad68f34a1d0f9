#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "math/vec2.hpp"
#include "nn/dataset.hpp"
#include "nn/frozen_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace rt::core {

/// The learned oracle f_alpha of §IV-B: predicts the safety potential
/// delta_{t+k} the EV will have after being attacked for k consecutive
/// frames, from the state observable at time t.
///
/// Input feature vector (dimension 6):
///   [delta_t, v_rel.x, v_rel.y, a_rel.x, a_rel.y, k]
/// Output: predicted delta_{t+k} in meters.
///
/// One oracle is trained per attack vector ("the malware uses a uniquely
/// trained NN for each attack vector"), on data collected by running
/// attacks with scripted (delta_inject, k) grids — see
/// experiments/sh_training.
class SafetyOracle {
 public:
  static constexpr std::size_t kInputDim = 6;

  /// Training provenance, serialized alongside the weights so a cached
  /// model states which curriculum produced it. Legacy cache files carry
  /// none — `load` then leaves every field empty/zero. The cache format is
  /// token-based, so any whitespace in the string fields is mapped to '_'
  /// on save; the curriculum is a comma-joined list of ScenarioRegistry
  /// keys.
  struct Provenance {
    std::string vector;            ///< e.g. "Move_Out"
    std::string curriculum;        ///< e.g. "DS-1,DS-2" or "cut-in"
    std::uint64_t fingerprint{0};  ///< sh_dataset_fingerprint at train time
  };

  /// Fresh (untrained) oracle with the paper's architecture.
  explicit SafetyOracle(std::uint64_t seed = 11);

  /// Assembles the feature vector.
  [[nodiscard]] static std::vector<double> features(double delta,
                                                    math::Vec2 v_rel,
                                                    math::Vec2 a_rel,
                                                    double k);

  /// Predicted delta_{t+k}. Runs on the frozen inference copy of the
  /// network from stack buffers: const, allocation-free, and safe to call
  /// concurrently on one oracle shared across parallel campaign runs.
  [[nodiscard]] double predict(double delta, math::Vec2 v_rel,
                               math::Vec2 a_rel, double k) const;

  /// Trains on the dataset (features per `features()`, target ground-truth
  /// delta_{t+k}); fits the input scaler internally and refreshes the
  /// frozen inference copy.
  nn::TrainResult train(const nn::Dataset& data, nn::TrainConfig config = {});

  /// Weight caching for the benchmark harness. `save` writes a temporary
  /// file and renames it over `path`, so `path` only ever holds a complete
  /// model. `load` returns false when `path` cannot be opened, throws
  /// std::runtime_error when it does not parse, and refreshes the frozen
  /// inference copy.
  void save(const std::string& path) const;
  [[nodiscard]] bool load(const std::string& path);

  [[nodiscard]] bool trained() const { return trained_; }
  /// Read-only: `predict` runs on a frozen copy taken by `train` and
  /// `load`, so the weights change only through those.
  [[nodiscard]] const nn::Mlp& net() const { return net_; }

  /// Bit-exact digest of the trained model: network weights
  /// (Mlp::content_hash) folded with the fitted scaler's means and stddevs.
  /// Golden tests pin training pipelines on this.
  [[nodiscard]] std::uint64_t content_hash() const;

  [[nodiscard]] const Provenance& provenance() const { return provenance_; }
  void set_provenance(Provenance p) { provenance_ = std::move(p); }

 private:
  nn::Mlp net_;
  /// Inference copy of net_ (see `net()`). None until `train` or `load`:
  /// an untrained oracle's unfitted scaler makes `predict` throw before
  /// it would read the copy, and each copy is ~128 KB.
  nn::FrozenMlp frozen_;
  nn::StandardScaler scaler_;
  Provenance provenance_{};
  bool trained_{false};
};

}  // namespace rt::core
