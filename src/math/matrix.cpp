#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace rt::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

Matrix Matrix::column(std::span<const double> entries) {
  Matrix m(entries.size(), 1);
  std::copy(entries.begin(), entries.end(), m.data_.begin());
  return m;
}

void Matrix::require_same_shape(const Matrix& o) const {
  if (rows_ != o.rows_ || cols_ != o.cols_) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
}

Matrix Matrix::operator+(const Matrix& o) const {
  Matrix r = *this;
  r += o;
  return r;
}

Matrix Matrix::operator-(const Matrix& o) const {
  Matrix r = *this;
  r -= o;
  return r;
}

namespace detail {

void throw_kernel_alias() {
  throw std::invalid_argument("Matrix kernel: out aliases an input");
}

void throw_inner_mismatch() {
  throw std::invalid_argument("Matrix: inner dimension mismatch");
}

}  // namespace detail

namespace {

void require_no_alias(const Matrix& a, const Matrix& b, const Matrix& out) {
  if (&out == &a || &out == &b) detail::throw_kernel_alias();
}

}  // namespace

void transposed_multiply_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("Matrix: inner dimension mismatch");
  }
  out.resize(a.cols(), b.cols());
  std::fill(out.data().begin(), out.data().end(), 0.0);
  // a^T(i, k) = a(k, i); the loop order matches `a.transposed() * b`.
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double v = a(k, i);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += v * b(k, j);
      }
    }
  }
}

void add_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
  out.resize(a.rows(), a.cols());
  const auto ad = a.data();
  const auto bd = b.data();
  const auto od = out.data();
  for (std::size_t i = 0; i < ad.size(); ++i) od[i] = ad[i] + bd[i];
}

void subtract_into(const Matrix& a, const Matrix& b, Matrix& out) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Matrix: shape mismatch");
  }
  out.resize(a.rows(), a.cols());
  const auto ad = a.data();
  const auto bd = b.data();
  const auto od = out.data();
  for (std::size_t i = 0; i < ad.size(); ++i) od[i] = ad[i] - bd[i];
}

void affine_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                 Matrix& out) {
  if (bias.rows() != w.rows() || bias.cols() != 1) {
    throw std::invalid_argument("affine_into: bias must be rows(w) x 1");
  }
  multiply_into(w, x, out);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    const double bi = bias(i, 0);
    for (std::size_t j = 0; j < out.cols(); ++j) out(i, j) += bi;
  }
}

namespace {

void require_row_range(const Matrix& out, std::size_t rows, std::size_t cols,
                       std::size_t row_begin, std::size_t row_end) {
  if (out.rows() != rows || out.cols() != cols) {
    throw std::invalid_argument("Matrix row kernel: out not pre-sized");
  }
  if (row_begin > row_end || row_end > rows) {
    throw std::invalid_argument("Matrix row kernel: bad row range");
  }
}

}  // namespace

void affine_rows_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                      Matrix& out, std::size_t row_begin,
                      std::size_t row_end) {
  require_no_alias(w, x, out);
  if (&out == &bias) detail::throw_kernel_alias();
  if (w.cols() != x.rows()) detail::throw_inner_mismatch();
  if (bias.rows() != w.rows() || bias.cols() != 1) {
    throw std::invalid_argument("affine_rows_into: bias must be rows(w) x 1");
  }
  require_row_range(out, w.rows(), x.cols(), row_begin, row_end);
  const std::size_t inner = w.cols();
  const std::size_t cols = x.cols();
  if (cols == 1) {
    // Mirrors multiply_into's column fast path: each element is an ordered
    // dot product (ascending k, skip exact-zero lhs), so restricting the
    // row range cannot change any value.
    const auto xd = x.data();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      double s = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = w(i, k);
        if (v != 0.0) s += v * xd[k];
      }
      out(i, 0) = s;
      out(i, 0) += bias(i, 0);
    }
    return;
  }
  // Register-tiled wide path, mirroring multiply_into's: per output row,
  // fixed-width column tiles accumulate in a local array (registers), then
  // the bias adds once per element. Ascending-k sums with the same
  // skip-exact-zero shortcut — bit-identical to the memory-accumulating
  // loop this replaces, for any row partition.
  constexpr std::size_t kTile = 16;
  const double* wd = w.data().data();
  const double* xd2 = x.data().data();
  double* od = out.data().data();
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* wrow = wd + i * inner;
    const double bi = bias(i, 0);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::size_t width = std::min(kTile, cols - j0);
      double acc[kTile] = {};
      if (width == kTile) {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = wrow[k];
          if (v == 0.0) continue;
          const double* xrow = xd2 + k * cols + j0;
          for (std::size_t j = 0; j < kTile; ++j) acc[j] += v * xrow[j];
        }
      } else {
        for (std::size_t k = 0; k < inner; ++k) {
          const double v = wrow[k];
          if (v == 0.0) continue;
          const double* xrow = xd2 + k * cols + j0;
          for (std::size_t j = 0; j < width; ++j) acc[j] += v * xrow[j];
        }
      }
      double* orow = od + i * cols + j0;
      for (std::size_t j = 0; j < width; ++j) orow[j] = acc[j] + bi;
    }
  }
}

void multiply_transposed_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end) {
  require_no_alias(a, b, out);
  if (a.cols() != b.cols()) detail::throw_inner_mismatch();
  require_row_range(out, a.rows(), b.rows(), row_begin, row_end);
  const std::size_t inner = a.cols();
  const std::size_t cols = b.rows();
  // Same per-element ordered sums as multiply_transposed_into (the 4-chain
  // register grouping there never mixes elements, so a plain per-element
  // loop is bit-identical).
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = a(i, k);
        if (v == 0.0) continue;
        s += v * b(j, k);
      }
      out(i, j) = s;
    }
  }
}

void transposed_multiply_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end) {
  require_no_alias(a, b, out);
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("Matrix: inner dimension mismatch");
  }
  require_row_range(out, a.cols(), b.cols(), row_begin, row_end);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) = 0.0;
  }
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t k = 0; k < a.rows(); ++k) {
      const double v = a(k, i);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += v * b(k, j);
      }
    }
  }
}

void invert_into(const Matrix& a, Matrix& scratch, Matrix& out) {
  require_no_alias(a, scratch, out);
  if (&scratch == &a || &scratch == &out) {
    throw std::invalid_argument("Matrix kernel: scratch aliases another");
  }
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Matrix::inverse: matrix not square");
  }
  const std::size_t n = a.rows();
  scratch = a;
  out.resize(n, n);
  std::fill(out.data().begin(), out.data().end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: find the largest-magnitude entry in this column.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(scratch(r, col)) > std::abs(scratch(pivot, col))) pivot = r;
    }
    if (std::abs(scratch(pivot, col)) < 1e-12) {
      throw std::domain_error("Matrix::inverse: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(scratch(col, j), scratch(pivot, j));
        std::swap(out(col, j), out(pivot, j));
      }
    }
    const double d = scratch(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      scratch(col, j) /= d;
      out(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = scratch(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        scratch(r, j) -= f * scratch(col, j);
        out(r, j) -= f * out(col, j);
      }
    }
  }
}

Matrix& Matrix::operator+=(const Matrix& o) {
  require_same_shape(o);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  require_same_shape(o);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix Matrix::operator*(const Matrix& o) const {
  Matrix r;
  multiply_into(*this, o, r);
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  r *= s;
  return r;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix r(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      r(j, i) = (*this)(i, j);
    }
  }
  return r;
}

Matrix Matrix::inverse() const {
  Matrix scratch;
  Matrix inv;
  invert_into(*this, scratch, inv);
  return inv;
}

Matrix Matrix::cholesky() const {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::cholesky: matrix not square");
  }
  const std::size_t n = rows_;
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          throw std::domain_error("Matrix::cholesky: not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

double Matrix::norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& o) const {
  require_same_shape(o);
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - o.data_[i]));
  }
  return m;
}

}  // namespace rt::math
