#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rt::math {

/// A small dense row-major matrix of doubles.
///
/// Sized dynamically: it backs the neural-network layers (up to a few
/// hundred rows) and the tracker's association cost matrices.
/// All operations validate dimensions and throw `std::invalid_argument` on
/// mismatch — in this codebase a dimension mismatch is always a programming
/// error, and failing loudly is preferred over UB.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a `rows x cols` matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from a nested initializer list, e.g.
  /// `Matrix m{{1.0, 2.0}, {3.0, 4.0}};`. All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Diagonal matrix from the given entries.
  [[nodiscard]] static Matrix diagonal(std::span<const double> entries);
  /// Column vector (n x 1) from the given entries.
  [[nodiscard]] static Matrix column(std::span<const double> entries);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Flat row-major access to the underlying storage.
  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

  /// Reshapes in place to `rows x cols`, preserving the underlying vector's
  /// capacity (no deallocation on shrink; at most one growth allocation,
  /// after which same-or-smaller resizes are allocation-free). Element
  /// values are unspecified afterwards — this exists for the `*_into`
  /// kernels and workspaces, which overwrite every entry. Inline with a
  /// same-shape early return: steady-state kernel calls re-resize scratch
  /// to the shape it already has millions of times per campaign.
  void resize(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;

  /// Matrix inverse via Gauss-Jordan elimination with partial pivoting.
  /// Throws `std::domain_error` if the matrix is singular (pivot < 1e-12).
  [[nodiscard]] Matrix inverse() const;

  /// Cholesky factor L (lower triangular, A = L * L^T).
  /// Throws `std::domain_error` if the matrix is not positive definite.
  [[nodiscard]] Matrix cholesky() const;

  /// Frobenius norm.
  [[nodiscard]] double norm() const;

  /// Max |a_ij - b_ij|; useful in tests.
  [[nodiscard]] double max_abs_diff(const Matrix& o) const;

  bool operator==(const Matrix& o) const = default;

 private:
  void require_same_shape(const Matrix& o) const;

  std::size_t rows_{0};
  std::size_t cols_{0};
  std::vector<double> data_;
};

/// Destination-passing kernels.
///
/// Each writes its result into a caller-owned `out`, reusing `out`'s storage
/// (allocation-free once `out` has seen the shape's footprint) — the hot
/// loops (NN training and batch evaluation) call these with workspace
/// scratch instead of chaining the allocating operators above.
///
/// Contract: every kernel reproduces the corresponding allocating-operator
/// expression *bit for bit* — same i-k-j accumulation order, same
/// skip-zero-lhs shortcut, transposes folded into the index order rather
/// than materialized — so the pinned golden aggregates and dataset hashes
/// are invariant under the rewrite. `out` must not alias an input
/// (`std::invalid_argument` otherwise); shape mismatches throw like the
/// operators they mirror.

/// out = a * b. Mirrors `a * b`.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a * b^T. Mirrors `a * b.transposed()` without materializing b^T.
inline void multiply_transposed_into(const Matrix& a, const Matrix& b,
                                     Matrix& out);
/// out = a^T * b. Mirrors `a.transposed() * b` without materializing a^T.
void transposed_multiply_into(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a + b. Mirrors `a + b`.
void add_into(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a - b. Mirrors `a - b`.
void subtract_into(const Matrix& a, const Matrix& b, Matrix& out);
/// Fused dense-layer affine map: out = w * x + bias, with `bias` a column
/// (rows(w) x 1) added to every column of the product. Mirrors the NN dense
/// forward (`w * x` then a per-row bias add).
void affine_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                 Matrix& out);
/// out = a^-1 via the same Gauss-Jordan elimination as `a.inverse()`;
/// `scratch` holds the working copy of `a`. Throws `std::domain_error` on a
/// singular matrix, like `inverse()`.
void invert_into(const Matrix& a, Matrix& scratch, Matrix& out);

/// Row-range kernels (the minibatch trainer's parallel slots).
///
/// Each computes only output rows [row_begin, row_end) of the matching full
/// kernel; `out` must already be sized to the full result shape (its other
/// rows are untouched). Because every kernel above runs an independent
/// serial accumulation per output element — the outer loop is over output
/// rows — covering [0, rows) with disjoint ranges reproduces the full
/// kernel BIT FOR BIT regardless of how the ranges are partitioned or on
/// which thread each range runs. That is what makes the trainer's `threads`
/// knob both thread-count-invariant and golden-preserving: there is no
/// floating-point reordering to begin with, only a partition of the output.
void affine_rows_into(const Matrix& w, const Matrix& x, const Matrix& bias,
                      Matrix& out, std::size_t row_begin,
                      std::size_t row_end);
/// Row range of `multiply_transposed_into` (out = a * b^T).
void multiply_transposed_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end);
/// Row range of `transposed_multiply_into` (out = a^T * b).
void transposed_multiply_rows_into(const Matrix& a, const Matrix& b,
                                   Matrix& out, std::size_t row_begin,
                                   std::size_t row_end);

namespace detail {
[[noreturn]] void throw_kernel_alias();
[[noreturn]] void throw_inner_mismatch();

/// Fixed-dimension kernel bodies for the bbox tracker's constant-velocity
/// Kalman filter (perception/kalman_filter.hpp), whose 6-state/4-measurement
/// algebra runs millions of times per campaign on plain arrays. The SAME
/// element-order contract as the generic kernels with compile-time bounds,
/// so the compiler fully unrolls them and keeps each output row's
/// accumulators in registers.
///
/// Bit-identity: per output element the terms still sum in ascending k with
/// the identical skip-exact-zero-lhs shortcut, and no element's sum ever
/// mixes with another's — accumulating in a local `acc` array instead of
/// the output memory reorders nothing.

/// out = a * b with compile-time shape (R x K) * (K x C).
template <std::size_t R, std::size_t K, std::size_t C>
inline void multiply_fixed(const double* a, const double* b, double* out) {
  for (std::size_t i = 0; i < R; ++i) {
    double acc[C] = {};
    for (std::size_t k = 0; k < K; ++k) {
      const double v = a[i * K + k];
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < C; ++j) acc[j] += v * b[k * C + j];
    }
    for (std::size_t j = 0; j < C; ++j) out[i * C + j] = acc[j];
  }
}

/// o = s^-1 for an N x N row-major `s`, which is destroyed: Gauss-Jordan
/// with partial pivoting — the SAME statement sequence as `invert_into`
/// with the trip counts fixed, so every divide/subtract happens in the
/// identical order and the result is bit-identical. Throws
/// `std::domain_error` on a singular matrix.
template <std::size_t N>
void invert_fixed(double* s, double* o) {
  for (std::size_t i = 0; i < N * N; ++i) o[i] = 0.0;
  for (std::size_t i = 0; i < N; ++i) o[i * N + i] = 1.0;
  for (std::size_t col = 0; col < N; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < N; ++r) {
      if (std::abs(s[r * N + col]) > std::abs(s[pivot * N + col])) pivot = r;
    }
    if (std::abs(s[pivot * N + col]) < 1e-12) {
      throw std::domain_error("Matrix::inverse: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < N; ++j) {
        std::swap(s[col * N + j], s[pivot * N + j]);
        std::swap(o[col * N + j], o[pivot * N + j]);
      }
    }
    const double d = s[col * N + col];
    for (std::size_t j = 0; j < N; ++j) {
      s[col * N + j] /= d;
      o[col * N + j] /= d;
    }
    for (std::size_t r = 0; r < N; ++r) {
      if (r == col) continue;
      const double f = s[r * N + col];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < N; ++j) {
        s[r * N + j] -= f * s[col * N + j];
        o[r * N + j] -= f * o[col * N + j];
      }
    }
  }
}
}  // namespace detail

inline void multiply_transposed_into(const Matrix& a, const Matrix& b,
                                     Matrix& out) {
  if (&out == &a || &out == &b) detail::throw_kernel_alias();
  if (a.cols() != b.cols()) detail::throw_inner_mismatch();
  const std::size_t rows = a.rows();
  const std::size_t inner = a.cols();
  const std::size_t cols = b.rows();
  out.resize(rows, cols);
  // out(i, j) = sum_k a(i, k) * b(j, k): rows of both operands stream
  // sequentially, and register accumulation (four independent j chains)
  // replaces the historical `a * b.transposed()` materialization. Per
  // element the terms still sum in ascending k, skipping exact-zero a —
  // bit-identical to the allocating expression.
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (std::size_t k = 0; k < inner; ++k) {
        const double v = a(i, k);
        if (v == 0.0) continue;
        s0 += v * b(j, k);
        s1 += v * b(j + 1, k);
        s2 += v * b(j + 2, k);
        s3 += v * b(j + 3, k);
      }
      out(i, j) = s0;
      out(i, j + 1) = s1;
      out(i, j + 2) = s2;
      out(i, j + 3) = s3;
    }
    for (; j < cols; ++j) {
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

}  // namespace rt::math
