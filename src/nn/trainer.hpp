#pragma once

#include <vector>

#include "nn/adam.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"

namespace rt::nn {

/// Training hyper-parameters (paper: Adam optimizer, 60/40 train/validation
/// split).
struct TrainConfig {
  int epochs{80};
  std::size_t batch_size{64};
  double lr{1e-3};
  double train_fraction{0.6};
  std::uint64_t seed{7};
  /// Stop early if validation loss has not improved for this many epochs
  /// (0 disables).
  int patience{15};
};

/// Per-epoch record.
struct EpochStats {
  int epoch{0};
  double train_loss{0.0};
  double val_loss{0.0};
  double val_mae{0.0};
};

/// Training outcome.
struct TrainResult {
  std::vector<EpochStats> history;
  double final_val_loss{0.0};
  double final_val_mae{0.0};
};

/// Minibatch trainer: standardizes inputs with the returned scaler (fit on
/// the training split), optimizes MSE with Adam, tracks validation metrics.
class Trainer {
 public:
  explicit Trainer(TrainConfig config = {}) : config_(config) {}

  /// Trains `net` in place on `data`; `scaler` receives the fitted input
  /// standardization (callers must apply it at inference time).
  TrainResult train(Mlp& net, const Dataset& data, StandardScaler& scaler);

  [[nodiscard]] const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
};

}  // namespace rt::nn
