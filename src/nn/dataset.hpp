#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "math/matrix.hpp"
#include "stats/rng.hpp"

namespace rt::nn {

/// A supervised dataset: inputs X (features x N) and targets Y
/// (outputs x N), column per sample.
struct Dataset {
  math::Matrix x;
  math::Matrix y;

  [[nodiscard]] std::size_t size() const { return x.cols(); }

  /// Appends one sample (feature vector + scalar target). O(N) rebuild —
  /// fine for tests; bulk construction should use `from_samples`.
  void add(const std::vector<double>& features, double target);

  /// Bulk constructor from parallel sample/target vectors.
  [[nodiscard]] static Dataset from_samples(
      const std::vector<std::vector<double>>& features,
      const std::vector<double>& targets);

  /// Extracts the columns listed in `idx`.
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& idx) const;

  /// Random train/validation split. `train_fraction` in (0, 1); the paper
  /// uses a 60/40 split.
  [[nodiscard]] std::pair<Dataset, Dataset> split(double train_fraction,
                                                  stats::Rng& rng) const;

  /// Seeded train/holdout split: same shuffle-based contract as `split`,
  /// but a pure function of (train_fraction, seed, size) — no caller-held
  /// Rng state is consumed, so repeated and concurrent callers always agree
  /// on which samples are held out. `train_fraction` is clamped to [0, 1].
  [[nodiscard]] std::pair<Dataset, Dataset> split_seeded(
      double train_fraction, std::uint64_t seed) const;

  /// Column-wise (sample-wise) concatenation in `parts` order. Empty parts
  /// are skipped; non-empty parts must agree on feature/target dimensions.
  [[nodiscard]] static Dataset concat(const std::vector<Dataset>& parts);

  /// Order-sensitive bit-exact digest (FNV-1a over the dimensions and every
  /// double's bit pattern). Golden tests pin dataset-generation pipelines
  /// on this: any change to sample order, count or a single bit of content
  /// changes the hash.
  [[nodiscard]] std::uint64_t content_hash() const;
};

/// Per-feature standardization (fit on train, apply everywhere). The
/// safety-hijacker inputs mix meters, m/s and frame counts, so without this
/// the wide-range features dominate the early gradient steps.
class StandardScaler {
 public:
  void fit(const math::Matrix& x);
  [[nodiscard]] math::Matrix transform(const math::Matrix& x) const;
  [[nodiscard]] std::vector<double> transform(
      const std::vector<double>& features) const;
  /// In-place standardization of a (features x batch) matrix — batched
  /// inference uses this on a reused gather matrix. Same arithmetic as
  /// `transform`.
  void transform_in_place(math::Matrix& x) const;
  /// In-place standardization of one feature vector (single-query
  /// inference on a stack array). Same arithmetic as `transform`.
  void transform_in_place(std::span<double> features) const;

  [[nodiscard]] const std::vector<double>& means() const { return mean_; }
  [[nodiscard]] const std::vector<double>& stddevs() const { return std_; }
  void set(std::vector<double> means, std::vector<double> stds) {
    mean_ = std::move(means);
    std_ = std::move(stds);
  }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace rt::nn
