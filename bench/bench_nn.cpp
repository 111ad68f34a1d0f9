// Microbenchmarks of the NN substrate and the malware's decision path:
// oracle inference, the SH binary-search decision (the paper stresses its
// O(log K_max) latency), and a training epoch.

#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"

#include "core/safety_hijacker.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"

using namespace rt;

namespace {

std::shared_ptr<core::SafetyOracle> quick_oracle() {
  auto oracle = std::make_shared<core::SafetyOracle>(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    const double delta = rng.uniform(0.0, 40.0);
    const double k = rng.uniform(3.0, 70.0);
    xs.push_back({delta, -5.0, 0.0, 0.0, 0.0, k});
    ys.push_back(delta - 0.3 * k);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 25;
  oracle->train(nn::Dataset::from_samples(xs, ys), cfg);
  return oracle;
}

void BM_OracleInference(benchmark::State& state) {
  auto oracle = quick_oracle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle->predict(20.0, {-5.0, 0.0}, {0.0, 0.0}, 30.0));
  }
}
BENCHMARK(BM_OracleInference);

void BM_SafetyHijackerDecision(benchmark::State& state) {
  core::SafetyHijacker sh(core::SafetyHijacker::Config{},
                          perception::DetectorNoiseModel::paper_defaults());
  sh.set_oracle(core::AttackVector::kMoveOut, quick_oracle());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sh.decide(core::AttackVector::kMoveOut,
                                       sim::ActorType::kVehicle, 20.0,
                                       {-5.0, 0.0}, {0.0, 0.0}));
  }
}
BENCHMARK(BM_SafetyHijackerDecision);

void BM_TrainingEpoch(benchmark::State& state) {
  stats::Rng rng(9);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 512; ++i) {
    xs.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                  rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                  rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    ys.push_back(xs.back()[0] * 2.0);
  }
  const nn::Dataset data = nn::Dataset::from_samples(xs, ys);
  nn::Mlp net = nn::make_safety_hijacker_net(rng);
  nn::StandardScaler scaler;
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.patience = 0;
  nn::Trainer trainer(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(net, data, scaler));
  }
}
BENCHMARK(BM_TrainingEpoch);

}  // namespace

int main(int argc, char** argv) {
  return rt::bench::bench_json_main(argc, argv);
}
