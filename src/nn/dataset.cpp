#include "nn/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/hash.hpp"

namespace rt::nn {

void Dataset::add(const std::vector<double>& features, double target) {
  const std::size_t d = features.size();
  if (x.empty()) {
    x = math::Matrix(d, 0);
    y = math::Matrix(1, 0);
  }
  if (x.rows() != d) {
    throw std::invalid_argument("Dataset::add: feature dimension mismatch");
  }
  // Column-append via rebuild; datasets here are small (thousands).
  math::Matrix nx(d, x.cols() + 1);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) nx(i, j) = x(i, j);
    nx(i, x.cols()) = features[i];
  }
  math::Matrix ny(1, y.cols() + 1);
  for (std::size_t j = 0; j < y.cols(); ++j) ny(0, j) = y(0, j);
  ny(0, y.cols()) = target;
  x = std::move(nx);
  y = std::move(ny);
}

Dataset Dataset::from_samples(const std::vector<std::vector<double>>& features,
                              const std::vector<double>& targets) {
  if (features.size() != targets.size()) {
    throw std::invalid_argument("Dataset::from_samples: size mismatch");
  }
  Dataset out;
  if (features.empty()) return out;
  const std::size_t d = features.front().size();
  out.x = math::Matrix(d, features.size());
  out.y = math::Matrix(1, targets.size());
  for (std::size_t j = 0; j < features.size(); ++j) {
    if (features[j].size() != d) {
      throw std::invalid_argument("Dataset::from_samples: ragged features");
    }
    for (std::size_t i = 0; i < d; ++i) out.x(i, j) = features[j][i];
    out.y(0, j) = targets[j];
  }
  return out;
}

Dataset Dataset::subset(const std::vector<std::size_t>& idx) const {
  Dataset out;
  out.x = math::Matrix(x.rows(), idx.size());
  out.y = math::Matrix(y.rows(), idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) {
    for (std::size_t i = 0; i < x.rows(); ++i) out.x(i, j) = x(i, idx[j]);
    for (std::size_t i = 0; i < y.rows(); ++i) out.y(i, j) = y(i, idx[j]);
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           stats::Rng& rng) const {
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  const auto n_train = static_cast<std::size_t>(
      std::round(train_fraction * static_cast<double>(size())));
  std::vector<std::size_t> train_idx(idx.begin(), idx.begin() + n_train);
  std::vector<std::size_t> val_idx(idx.begin() + n_train, idx.end());
  return {subset(train_idx), subset(val_idx)};
}

std::pair<Dataset, Dataset> Dataset::split_seeded(double train_fraction,
                                                  std::uint64_t seed) const {
  const double f = std::clamp(train_fraction, 0.0, 1.0);
  // The shuffle source is opened counter-style from (seed, size), so the
  // split depends on nothing but the arguments and the sample count.
  stats::Rng rng = stats::Rng::from_stream(seed, size());
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), 0);
  std::shuffle(idx.begin(), idx.end(), rng.engine());
  const auto n_train = std::min(
      size(), static_cast<std::size_t>(
                  std::llround(f * static_cast<double>(size()))));
  std::vector<std::size_t> train_idx(
      idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<std::size_t> val_idx(
      idx.begin() + static_cast<std::ptrdiff_t>(n_train), idx.end());
  return {subset(train_idx), subset(val_idx)};
}

Dataset Dataset::concat(const std::vector<Dataset>& parts) {
  Dataset out;
  std::size_t cols = 0;
  std::size_t x_rows = 0;
  std::size_t y_rows = 0;
  bool seen = false;
  for (const auto& p : parts) {
    if (p.size() == 0) continue;
    if (!seen) {
      seen = true;
      x_rows = p.x.rows();
      y_rows = p.y.rows();
    } else if (p.x.rows() != x_rows || p.y.rows() != y_rows) {
      throw std::invalid_argument("Dataset::concat: dimension mismatch");
    }
    cols += p.x.cols();
  }
  if (!seen) return out;
  out.x = math::Matrix(x_rows, cols);
  out.y = math::Matrix(y_rows, cols);
  std::size_t off = 0;
  for (const auto& p : parts) {
    for (std::size_t j = 0; j < p.x.cols(); ++j, ++off) {
      for (std::size_t i = 0; i < x_rows; ++i) out.x(i, off) = p.x(i, j);
      for (std::size_t i = 0; i < y_rows; ++i) out.y(i, off) = p.y(i, j);
    }
  }
  return out;
}

std::uint64_t Dataset::content_hash() const {
  std::uint64_t h = stats::kFnv1aOffset;
  const auto fold_matrix = [&h](const math::Matrix& m) {
    h = stats::fnv1a_u64(h, m.rows());
    h = stats::fnv1a_u64(h, m.cols());
    for (const double value : m.data()) {
      h = stats::fnv1a_double(h, value);
    }
  };
  fold_matrix(x);
  fold_matrix(y);
  return h;
}

void StandardScaler::fit(const math::Matrix& x) {
  mean_.assign(x.rows(), 0.0);
  std_.assign(x.rows(), 1.0);
  if (x.cols() == 0) return;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) s += x(i, j);
    mean_[i] = s / static_cast<double>(x.cols());
    double ss = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      ss += (x(i, j) - mean_[i]) * (x(i, j) - mean_[i]);
    }
    const double sd = std::sqrt(ss / static_cast<double>(x.cols()));
    std_[i] = sd > 1e-9 ? sd : 1.0;
  }
}

math::Matrix StandardScaler::transform(const math::Matrix& x) const {
  if (mean_.size() != x.rows()) {
    throw std::invalid_argument("StandardScaler: dimension mismatch");
  }
  math::Matrix out = x;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(i, j) = (x(i, j) - mean_[i]) / std_[i];
    }
  }
  return out;
}

void StandardScaler::transform_in_place(math::Matrix& x) const {
  if (mean_.size() != x.rows()) {
    throw std::invalid_argument("StandardScaler: dimension mismatch");
  }
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = (x(i, j) - mean_[i]) / std_[i];
    }
  }
}

void StandardScaler::transform_in_place(std::span<double> features) const {
  if (mean_.size() != features.size()) {
    throw std::invalid_argument("StandardScaler: dimension mismatch");
  }
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = (features[i] - mean_[i]) / std_[i];
  }
}

std::vector<double> StandardScaler::transform(
    const std::vector<double>& features) const {
  if (mean_.size() != features.size()) {
    throw std::invalid_argument("StandardScaler: dimension mismatch");
  }
  std::vector<double> out(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    out[i] = (features[i] - mean_[i]) / std_[i];
  }
  return out;
}

}  // namespace rt::nn
