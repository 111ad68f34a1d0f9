#include <gtest/gtest.h>

#include <cstring>

#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "nn/adam.hpp"
#include "nn/dataset.hpp"
#include "nn/frozen_mlp.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace rt::nn {
namespace {

TEST(Dense, ForwardShapeAndBias) {
  Dense d(3, 2);
  d.weights() = math::Matrix{{1.0, 0.0, 0.0}, {0.0, 1.0, 1.0}};
  d.bias() = math::Matrix{{0.5}, {-0.5}};
  math::Matrix x(3, 2);
  x(0, 0) = 1.0;
  x(1, 1) = 2.0;
  x(2, 1) = 3.0;
  math::Matrix y;
  d.forward_into(x, y, /*training=*/false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(y(1, 1), 4.5);
}

TEST(Relu, ForwardBackward) {
  Relu relu;
  math::Matrix x{{-1.0, 2.0}, {3.0, -4.0}};
  math::Matrix y;
  relu.forward_into(x, y, /*training=*/true);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 2.0);
  math::Matrix g(2, 2, 1.0);
  math::Matrix gx;
  math::Matrix scratch;
  relu.backward_into(x, g, gx, scratch);
  EXPECT_DOUBLE_EQ(gx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(gx(1, 0), 1.0);
}

TEST(Dropout, InferencePassThroughTrainingScales) {
  Dropout drop(0.5, stats::Rng(3));
  math::Matrix x(1, 1000, 1.0);
  math::Matrix inference;
  drop.forward_into(x, inference, /*training=*/false);
  EXPECT_DOUBLE_EQ(inference(0, 0), 1.0);
  math::Matrix train;
  drop.forward_into(x, train, /*training=*/true);
  double sum = 0.0;
  for (double v : train.data()) sum += v;
  // Inverted dropout preserves the expectation.
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

// The threshold mask draw must be the draw std::bernoulli_distribution
// makes from the same engine state, so dropout masks (and every trained
// oracle) stay bit-identical.
TEST(Dropout, InlineDrawMatchesBernoulliDistribution) {
  for (const double p : {0.9, 0.5, 1e-9, 1.0 - 0x1p-53}) {
    std::mt19937_64 words(20200613);
    std::mt19937_64 reference = words;
    std::bernoulli_distribution bernoulli(p);
    const std::uint64_t threshold = dropout_threshold(p);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      mismatches += (words() < threshold) != bernoulli(reference);
    }
    EXPECT_EQ(mismatches, 0) << "p = " << p;
    EXPECT_EQ(words, reference) << "one engine word per draw, p = " << p;
  }
}

/// A URBG replaying fixed 64-bit words, for the edges of the word -> double
/// mapping.
struct FixedWords {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }
  result_type operator()() { return words[next++ % words.size()]; }
  std::vector<result_type> words;
  std::size_t next{0};
};

TEST(Dropout, InlineDrawMatchesBernoulliDistributionOnEdgeWords) {
  // 2^64 - 2^11 is the smallest word whose double rounds to 2^64, i.e.
  // x = 1.0 before the clamp; the word below it is the largest with x < 1.
  const std::vector<std::uint64_t> edges = {
      0, 1, std::uint64_t{1} << 53, std::uint64_t{1} << 63, UINT64_MAX,
      UINT64_MAX - 2047, UINT64_MAX - 2048, UINT64_MAX - 4095};
  for (const double p : {1e-9, 0x1p-11, std::nextafter(0x1p-11, 1.0), 0.5,
                         0.9, 1.0 - 0x1p-53}) {
    FixedWords urbg{edges};
    std::bernoulli_distribution bernoulli(p);
    for (const std::uint64_t word : edges) {
      EXPECT_EQ(word < dropout_threshold(p), bernoulli(urbg))
          << "word " << word << ", p = " << p;
    }
  }
}

// Layer-level: the training mask is the mask Rng::bernoulli(keep) draws.
TEST(Dropout, TrainingMaskMatchesRngBernoulli) {
  Dropout drop(0.1, stats::Rng(17));
  stats::Rng rng(17);
  const math::Matrix x(7, 300, 1.5);
  math::Matrix y;
  const double keep = 1.0 - 0.1;
  for (int pass = 0; pass < 2; ++pass) {
    drop.forward_into(x, y, /*training=*/true);
    for (const double v : y.data()) {
      const double expected = 1.5 * (rng.bernoulli(keep) ? 1.0 / keep : 0.0);
      ASSERT_EQ(v, expected);
    }
  }
}

/// Numerical gradient check of a small MLP against finite differences.
TEST(Mlp, GradientCheck) {
  stats::Rng rng(5);
  Mlp net;
  net.add(std::make_unique<Dense>(3, 5, rng));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Dense>(5, 1, rng));

  math::Matrix x(3, 4);
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  math::Matrix y(1, 4);
  for (auto& v : y.data()) v = rng.uniform(-1.0, 1.0);

  // Analytic gradients: backward_into reads the activations the
  // training-mode forward_into left in the workspace. With no dropout in
  // this net, training and inference outputs are identical.
  Mlp::Workspace ws;
  math::Matrix grad;
  MseLoss::gradient_into(net.forward_into(x, ws), y, grad);
  net.backward_into(grad, ws);
  const auto params = net.parameters();
  const auto grads = net.gradients();

  const double eps = 1e-6;
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto data = params[p]->data();
    for (std::size_t i = 0; i < std::min<std::size_t>(data.size(), 8); ++i) {
      const double orig = data[i];
      data[i] = orig + eps;
      const double lp = MseLoss::value(net.predict_into(x, ws), y);
      data[i] = orig - eps;
      const double lm = MseLoss::value(net.predict_into(x, ws), y);
      data[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->data()[i], numeric, 1e-4)
          << "param " << p << " index " << i;
    }
  }
}

TEST(Mlp, SafetyHijackerArchitecture) {
  stats::Rng rng(1);
  Mlp net = make_safety_hijacker_net(rng);
  // 6->100->100->50->1 with ReLU+Dropout between dense layers.
  EXPECT_EQ(net.layers().size(), 10u);
  const std::size_t expected_params = (6 * 100 + 100) + (100 * 100 + 100) +
                                      (100 * 50 + 50) + (50 * 1 + 1);
  EXPECT_EQ(net.parameter_count(), expected_params);
  math::Matrix x(6, 3);
  Mlp::Workspace ws;
  const math::Matrix& y = net.predict_into(x, ws);
  EXPECT_EQ(y.rows(), 1u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Adam, MinimizesQuadratic) {
  // Minimize f(w) = ||w - target||^2 directly through Adam.
  math::Matrix w(4, 1, 0.0);
  math::Matrix target{{1.0}, {-2.0}, {0.5}, {3.0}};
  Adam adam({0.05, 0.9, 0.999, 1e-8});
  for (int i = 0; i < 500; ++i) {
    math::Matrix grad = (w - target) * 2.0;
    adam.step({&w}, {&grad});
  }
  EXPECT_LT(w.max_abs_diff(target), 0.05);
  EXPECT_EQ(adam.steps_taken(), 500);
}

TEST(MseLoss, ValueGradMae) {
  math::Matrix pred{{1.0, 2.0}};
  math::Matrix target{{0.0, 4.0}};
  EXPECT_DOUBLE_EQ(MseLoss::value(pred, target), (1.0 + 4.0) / 2.0);
  math::Matrix g;
  MseLoss::gradient_into(pred, target, g);
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);   // 2*(1-0)/2
  EXPECT_DOUBLE_EQ(g(0, 1), -2.0);  // 2*(2-4)/2
  EXPECT_DOUBLE_EQ(MseLoss::mae(pred, target), 1.5);
}

TEST(Dataset, AddSubsetSplit) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.add({static_cast<double>(i), 1.0}, i * 2.0);
  }
  EXPECT_EQ(d.size(), 10u);
  const Dataset sub = d.subset({0, 5});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.y(0, 1), 10.0);

  stats::Rng rng(9);
  const auto [train, val] = d.split(0.6, rng);
  EXPECT_EQ(train.size(), 6u);
  EXPECT_EQ(val.size(), 4u);
  EXPECT_THROW(d.add({1.0}, 0.0), std::invalid_argument);
}

TEST(Dataset, FromSamples) {
  const Dataset d = Dataset::from_samples({{1.0, 2.0}, {3.0, 4.0}}, {5.0, 6.0});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.x(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(d.y(0, 0), 5.0);
  EXPECT_THROW(Dataset::from_samples({{1.0}}, {1.0, 2.0}),
               std::invalid_argument);
}

Dataset counting_dataset(int n) {
  Dataset d;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < n; ++i) {
    xs.push_back({static_cast<double>(i), 1.0});
    ys.push_back(static_cast<double>(i));
  }
  return Dataset::from_samples(xs, ys);
}

TEST(Dataset, SplitSeededDeterministicAndDisjoint) {
  const Dataset d = counting_dataset(20);
  const auto [a1, b1] = d.split_seeded(0.6, 42);
  const auto [a2, b2] = d.split_seeded(0.6, 42);
  EXPECT_EQ(a1.size(), 12u);
  EXPECT_EQ(b1.size(), 8u);
  // Pure function of (fraction, seed, size): identical on every call.
  EXPECT_EQ(a1.content_hash(), a2.content_hash());
  EXPECT_EQ(b1.content_hash(), b2.content_hash());

  // Disjoint and exhaustive: each target 0..19 appears exactly once across
  // the two halves.
  std::set<int> seen;
  for (std::size_t j = 0; j < a1.size(); ++j) {
    seen.insert(static_cast<int>(a1.y(0, j)));
  }
  for (std::size_t j = 0; j < b1.size(); ++j) {
    seen.insert(static_cast<int>(b1.y(0, j)));
  }
  EXPECT_EQ(seen.size(), 20u);

  // A different seed reshuffles (sizes stay fixed).
  const auto [a3, b3] = d.split_seeded(0.6, 43);
  EXPECT_EQ(a3.size(), 12u);
  EXPECT_NE(a1.content_hash(), a3.content_hash());
}

TEST(Dataset, SplitSeededRatioEdgeCases) {
  const Dataset d = counting_dataset(5);
  {
    const auto [train, val] = d.split_seeded(0.0, 7);
    EXPECT_EQ(train.size(), 0u);
    EXPECT_EQ(val.size(), 5u);
  }
  {
    const auto [train, val] = d.split_seeded(1.0, 7);
    EXPECT_EQ(train.size(), 5u);
    EXPECT_EQ(val.size(), 0u);
  }
  {
    // Out-of-range fractions clamp instead of slicing past the ends.
    const auto [train, val] = d.split_seeded(-0.5, 7);
    EXPECT_EQ(train.size(), 0u);
    EXPECT_EQ(val.size(), 5u);
  }
  {
    const auto [train, val] = d.split_seeded(1.5, 7);
    EXPECT_EQ(train.size(), 5u);
    EXPECT_EQ(val.size(), 0u);
  }
  {
    const Dataset empty;
    const auto [train, val] = empty.split_seeded(0.6, 7);
    EXPECT_EQ(train.size(), 0u);
    EXPECT_EQ(val.size(), 0u);
  }
}

TEST(Dataset, ConcatPreservesOrderSkipsEmptyValidates) {
  const Dataset a = Dataset::from_samples({{1.0, 2.0}}, {10.0});
  const Dataset b = Dataset::from_samples({{3.0, 4.0}, {5.0, 6.0}},
                                          {20.0, 30.0});
  const Dataset joined = Dataset::concat({a, Dataset{}, b});
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_DOUBLE_EQ(joined.y(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(joined.y(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(joined.y(0, 2), 30.0);
  EXPECT_DOUBLE_EQ(joined.x(1, 2), 6.0);

  EXPECT_EQ(Dataset::concat({}).size(), 0u);
  EXPECT_EQ(Dataset::concat({Dataset{}, Dataset{}}).size(), 0u);

  const Dataset wide = Dataset::from_samples({{1.0, 2.0, 3.0}}, {1.0});
  EXPECT_THROW(Dataset::concat({a, wide}), std::invalid_argument);
}

TEST(Dataset, ContentHashDistinguishesContentAndShape) {
  const Dataset a = Dataset::from_samples({{1.0, 2.0}, {3.0, 4.0}},
                                          {5.0, 6.0});
  Dataset b = Dataset::from_samples({{1.0, 2.0}, {3.0, 4.0}}, {5.0, 6.0});
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.y(0, 1) = 6.0000001;
  EXPECT_NE(a.content_hash(), b.content_hash());
  // Same values, different sample order.
  const Dataset swapped = Dataset::from_samples({{3.0, 4.0}, {1.0, 2.0}},
                                                {6.0, 5.0});
  EXPECT_NE(a.content_hash(), swapped.content_hash());
  // Same flattened payload, different shape.
  const Dataset tall = Dataset::from_samples({{1.0, 3.0, 2.0, 4.0}}, {5.0});
  EXPECT_NE(a.content_hash(), tall.content_hash());
  EXPECT_EQ(Dataset{}.content_hash(), Dataset{}.content_hash());
}

TEST(StandardScaler, NormalizesPerFeature) {
  math::Matrix x(2, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    x(0, j) = 10.0 + static_cast<double>(j);   // mean 11.5
    x(1, j) = 100.0 * static_cast<double>(j);  // large scale
  }
  StandardScaler scaler;
  scaler.fit(x);
  const math::Matrix t = scaler.transform(x);
  double m0 = 0.0;
  for (std::size_t j = 0; j < 4; ++j) m0 += t(0, j);
  EXPECT_NEAR(m0 / 4.0, 0.0, 1e-9);
  const auto tv = scaler.transform(std::vector<double>{11.5, 150.0});
  EXPECT_NEAR(tv[0], 0.0, 1e-9);
}

TEST(Trainer, LearnsLinearFunction) {
  stats::Rng rng(13);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    xs.push_back({a, b});
    ys.push_back(3.0 * a - 2.0 * b + 1.0);
  }
  const Dataset data = Dataset::from_samples(xs, ys);

  Mlp net;
  net.add(std::make_unique<Dense>(2, 16, rng));
  net.add(std::make_unique<Relu>());
  net.add(std::make_unique<Dense>(16, 1, rng));

  StandardScaler scaler;
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 32;
  cfg.lr = 5e-3;
  Trainer trainer(cfg);
  const TrainResult result = trainer.train(net, data, scaler);
  EXPECT_LT(result.final_val_mae, 0.35);
  EXPECT_FALSE(result.history.empty());
  // Loss decreased over training.
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST(Serialize, RoundTripPreservesPredictions) {
  stats::Rng rng(31);
  Mlp net = make_safety_hijacker_net(rng);
  StandardScaler scaler;
  scaler.set({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, {1.0, 1.0, 2.0, 2.0, 3.0, 3.0});

  std::stringstream ss;
  save_model(ss, net, scaler);

  Mlp loaded;
  StandardScaler loaded_scaler;
  load_model(ss, loaded, loaded_scaler);

  math::Matrix x(6, 5);
  stats::Rng xr(7);
  for (auto& v : x.data()) v = xr.uniform(-2.0, 2.0);
  Mlp::Workspace ws;
  Mlp::Workspace loaded_ws;
  EXPECT_LT(net.predict_into(x, ws).max_abs_diff(
                loaded.predict_into(x, loaded_ws)),
            1e-12);
  EXPECT_EQ(loaded_scaler.means()[2], 3.0);
}

TEST(Serialize, RejectsCorruptHeader) {
  std::stringstream ss("not-a-model 1\n");
  Mlp net;
  StandardScaler scaler;
  EXPECT_THROW(load_model(ss, net, scaler), std::runtime_error);
  EXPECT_FALSE(load_model_file("/nonexistent/path.txt", net, scaler));
}


// ----------------------------------------- workspace forward / backward

bool bits_equal(const math::Matrix& a, const math::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto ad = a.data();
  const auto bd = b.data();
  return std::memcmp(ad.data(), bd.data(), ad.size() * sizeof(double)) == 0;
}

// With dropout disabled, the training-mode forward (every layer run, input
// copied into the workspace) and the inference forward (identity layers
// skipped) compute the same bits.
TEST(MlpWorkspace, ForwardIntoMatchesPredictIntoBitwise) {
  stats::Rng rng(21);
  Mlp net = make_safety_hijacker_net(rng, 6, /*dropout_rate=*/0.0);
  Mlp::Workspace train_ws;
  Mlp::Workspace predict_ws;
  for (const std::size_t batch : {1u, 3u, 16u}) {
    math::Matrix x(6, batch);
    for (double& v : x.data()) v = rng.uniform(-2.0, 2.0);
    const math::Matrix& trained = net.forward_into(x, train_ws);
    const math::Matrix& pred = net.predict_into(x, predict_ws);
    EXPECT_TRUE(bits_equal(trained, pred)) << "batch " << batch;
  }
}

// A D x B batch through one matrix-matrix forward yields, column for
// column, EXACTLY the bits of B width-1 forwards. Guaranteed by the kernel
// contract in math/matrix.hpp (ordered ascending-k accumulation per output
// element, independent of batch width); the trainer's validation pass and
// the register-tiled kernels rely on it.
TEST(MlpWorkspace, PredictBatchColumnsMatchSingleColumnsBitwise) {
  stats::Rng rng(22);
  Mlp net = make_safety_hijacker_net(rng, 6, /*dropout_rate=*/0.0);
  Mlp::Workspace batch_ws;
  Mlp::Workspace single_ws;
  for (const std::size_t batch : {1u, 2u, 7u, 32u}) {
    math::Matrix x(6, batch);
    for (double& v : x.data()) v = rng.uniform(-2.0, 2.0);
    const math::Matrix& batched = net.predict_into(x, batch_ws);
    ASSERT_EQ(batched.cols(), batch);
    math::Matrix col(6, 1);
    for (std::size_t j = 0; j < batch; ++j) {
      for (std::size_t i = 0; i < 6; ++i) col(i, 0) = x(i, j);
      const math::Matrix& single = net.predict_into(col, single_ws);
      for (std::size_t i = 0; i < batched.rows(); ++i) {
        const double bv = batched(i, j);
        const double sv = single(i, 0);
        std::uint64_t bb = 0;
        std::uint64_t sb = 0;
        std::memcpy(&bb, &bv, sizeof bb);
        std::memcpy(&sb, &sv, sizeof sb);
        EXPECT_EQ(bb, sb) << "batch " << batch << " col " << j << " row "
                          << i;
      }
    }
  }
}

TEST(MlpWorkspace, ContentHashPinsWeightBits) {
  stats::Rng rng_a(31);
  stats::Rng rng_b(31);
  Mlp a = make_safety_hijacker_net(rng_a);
  Mlp b = make_safety_hijacker_net(rng_b);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  // A single-bit weight change must change the digest.
  auto params = b.parameters();
  ASSERT_FALSE(params.empty());
  (*params[0])(0, 0) = std::nextafter((*params[0])(0, 0), 1e9);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(StandardScaler, TransformInPlaceMatchesTransform) {
  stats::Rng rng(42);
  math::Matrix fit(4, 20);
  for (double& v : fit.data()) v = rng.uniform(-5.0, 9.0);
  StandardScaler scaler;
  scaler.fit(fit);
  math::Matrix x(4, 3);
  for (double& v : x.data()) v = rng.uniform(-5.0, 9.0);
  math::Matrix in_place = x;
  scaler.transform_in_place(in_place);
  EXPECT_TRUE(bits_equal(in_place, scaler.transform(x)));
  math::Matrix wrong(3, 1, 0.0);
  EXPECT_THROW(scaler.transform_in_place(wrong), std::invalid_argument);

  // The single-vector overload: column 1 of x, same bits.
  std::vector<double> column(4);
  for (std::size_t i = 0; i < 4; ++i) column[i] = x(i, 1);
  scaler.transform_in_place(std::span<double>(column));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::memcmp(&column[i], &in_place(i, 1), sizeof(double)) ==
                0)
        << "feature " << i;
  }
  std::vector<double> short_column(3);
  EXPECT_THROW(scaler.transform_in_place(std::span<double>(short_column)),
               std::invalid_argument);
}

// Mix of test_math's random_matrix: ~15% +0.0, ~5% -0.0, the rest uniform
// in [-scale, scale], so every skip-exact-zero branch is taken.
double zero_mixed(stats::Rng& rng, double scale) {
  const double roll = rng.uniform(0.0, 1.0);
  if (roll < 0.15) return 0.0;
  if (roll < 0.2) return -0.0;
  return rng.uniform(-scale, scale);
}

// The frozen inference copy answers exactly what Mlp::predict_into answers,
// bit for bit: zero and negative-zero weights, biases and inputs, plus
// first-layer rows that cancel to an exact zero pre-activation.
TEST(FrozenMlp, MatchesMlpPredictBitwise) {
  stats::Rng rng(23);
  Mlp net = make_safety_hijacker_net(rng);
  for (const auto& layer : net.layers()) {
    auto* dense = dynamic_cast<Dense*>(layer.get());
    if (dense == nullptr) continue;
    for (double& v : dense->weights().data()) v = zero_mixed(rng, 0.5);
    for (double& v : dense->bias().data()) v = zero_mixed(rng, 0.5);
  }
  // Rows 0-7 of the first layer compute c * (x0 - x1) + (+-0.0): exactly
  // zero whenever x0 == x1.
  auto* first = dynamic_cast<Dense*>(net.layers().front().get());
  ASSERT_NE(first, nullptr);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t k = 0; k < first->input_size(); ++k) {
      first->weights()(i, k) = 0.0;
    }
    const double c = 0.25 * static_cast<double>(i + 1);
    first->weights()(i, 0) = c;
    first->weights()(i, 1) = -c;
    first->bias()(i, 0) = i % 2 == 0 ? 0.0 : -0.0;
  }
  const FrozenMlp frozen(net);
  ASSERT_EQ(frozen.input_size(), 6u);
  ASSERT_EQ(frozen.output_size(), 1u);

  math::Matrix x(6, 1);
  math::Matrix pre;
  Mlp::Workspace ws;
  std::size_t zero_preacts = 0;
  for (int n = 0; n < 10000; ++n) {
    for (double& v : x.data()) v = zero_mixed(rng, 3.0);
    if (n % 3 == 0) x(1, 0) = x(0, 0);
    if (n % 97 == 0) {
      for (double& v : x.data()) v = n % 2 == 0 ? 0.0 : -0.0;
    }
    math::affine_into(first->weights(), x, first->bias(), pre);
    for (const double v : pre.data()) zero_preacts += v == 0.0 ? 1 : 0;

    const double expected = net.predict_into(x, ws)(0, 0);
    double got = 1.0;
    frozen.predict(x.data(), {&got, 1});
    std::uint64_t eb = 0;
    std::uint64_t gb = 0;
    std::memcpy(&eb, &expected, sizeof eb);
    std::memcpy(&gb, &got, sizeof gb);
    ASSERT_EQ(eb, gb) << "input " << n;
  }
  EXPECT_GT(zero_preacts, 1000u);
}

TEST(FrozenMlp, RejectsUnsupportedNetworksAndShapes) {
  stats::Rng rng(24);
  Mlp relu_first;
  relu_first.add(std::make_unique<Relu>());
  relu_first.add(std::make_unique<Dense>(2, 1, rng));
  EXPECT_THROW(FrozenMlp{relu_first}, std::invalid_argument);

  Mlp too_wide;
  too_wide.add(std::make_unique<Dense>(2, FrozenMlp::kMaxWidth + 1, rng));
  EXPECT_THROW(FrozenMlp{too_wide}, std::invalid_argument);

  EXPECT_THROW(FrozenMlp{Mlp{}}, std::invalid_argument);

  Mlp net = make_safety_hijacker_net(rng);
  const FrozenMlp frozen(net);
  std::vector<double> x(5, 0.0);
  double y = 0.0;
  EXPECT_THROW(frozen.predict(x, {&y, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace rt::nn
