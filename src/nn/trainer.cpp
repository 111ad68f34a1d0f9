#include "nn/trainer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "nn/loss.hpp"

namespace rt::nn {

TrainResult Trainer::train(Mlp& net, const Dataset& data,
                           StandardScaler& scaler) {
  // Minibatch-level parallelism: the layers fan their products' output rows
  // over this pool for the duration of the run (bit-identical to serial at
  // any thread count — see TrainConfig::threads). The guard clears the
  // layer pool pointers on every exit path so a trained network never
  // escapes with a dangling pool.
  runtime::ThreadPool pool(config_.threads);
  struct ParallelGuard {
    Mlp& net;
    ~ParallelGuard() { net.set_parallel(nullptr); }
  } guard{net};
  net.set_parallel(pool.size() > 1 ? &pool : nullptr);

  TrainResult result;
  stats::Rng rng(config_.seed);
  auto [train_set, val_set] = data.split(config_.train_fraction, rng);
  scaler.fit(train_set.x);
  const math::Matrix x_train = scaler.transform(train_set.x);
  const math::Matrix x_val = scaler.transform(val_set.x);

  Adam optimizer({config_.lr, 0.9, 0.999, 1e-8});
  const std::size_t n = x_train.cols();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double best_val = std::numeric_limits<double>::infinity();
  int since_best = 0;

  // Minibatch gather buffers, loss gradient, and the network workspace are
  // hoisted out of the epoch loop: after the first epoch warms their
  // capacity up, an epoch performs no per-batch heap allocations. The
  // parameter/gradient pointer lists are likewise stable across steps.
  math::Matrix xb;
  math::Matrix yb;
  math::Matrix grad;
  Mlp::Workspace ws;
  const std::vector<math::Matrix*> params = net.parameters();
  const std::vector<math::Matrix*> grads = net.gradients();

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double train_loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(n, start + config_.batch_size);
      xb.resize(x_train.rows(), end - start);
      yb.resize(train_set.y.rows(), end - start);
      for (std::size_t j = start; j < end; ++j) {
        for (std::size_t i = 0; i < xb.rows(); ++i) {
          xb(i, j - start) = x_train(i, order[j]);
        }
        for (std::size_t i = 0; i < yb.rows(); ++i) {
          yb(i, j - start) = train_set.y(i, order[j]);
        }
      }
      const math::Matrix& pred = net.forward_into(xb, ws);
      train_loss_sum += MseLoss::value(pred, yb);
      ++batches;
      MseLoss::gradient_into(pred, yb, grad);
      net.backward_into(grad, ws);
      optimizer.step(params, grads);
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss =
        batches > 0 ? train_loss_sum / static_cast<double>(batches) : 0.0;
    if (x_val.cols() > 0) {
      const math::Matrix& val_pred = net.predict_into(x_val, ws);
      stats.val_loss = MseLoss::value(val_pred, val_set.y);
      stats.val_mae = MseLoss::mae(val_pred, val_set.y);
    }
    result.history.push_back(stats);

    if (config_.patience > 0 && x_val.cols() > 0) {
      if (stats.val_loss < best_val - 1e-9) {
        best_val = stats.val_loss;
        since_best = 0;
      } else if (++since_best >= config_.patience) {
        break;
      }
    }
  }
  if (!result.history.empty()) {
    result.final_val_loss = result.history.back().val_loss;
    result.final_val_mae = result.history.back().val_mae;
  }
  return result;
}

}  // namespace rt::nn
