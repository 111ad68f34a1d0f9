#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "math/bbox.hpp"
#include "math/matrix.hpp"
#include "math/vec2.hpp"
#include "stats/rng.hpp"

namespace rt::math {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(-a, (Vec2{-1.0, -2.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).squared_norm(), 25.0);
  EXPECT_DOUBLE_EQ(a.distance_to(b), std::hypot(2.0, 3.0));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);

  const Matrix init{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(init(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(init(1, 0), 3.0);
  EXPECT_THROW((Matrix{{1.0}, {2.0, 3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
  const double entries[] = {2.0, 5.0};
  const Matrix d = Matrix::diagonal(entries);
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, Multiply) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW(a * Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ((a + b)(1, 1), 5.0);
  EXPECT_DOUBLE_EQ((a - b)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(1, 0), 6.0);
  EXPECT_THROW(a + Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, InverseRoundTrip) {
  stats::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    Matrix a(n, n);
    for (auto& v : a.data()) v = rng.uniform(-2.0, 2.0);
    // Diagonal dominance guarantees invertibility.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
    const Matrix inv = a.inverse();
    const Matrix prod = a * inv;
    EXPECT_LT(prod.max_abs_diff(Matrix::identity(n)), 1e-9);
  }
}

TEST(Matrix, InverseSingularThrows) {
  const Matrix z(3, 3, 0.0);
  EXPECT_THROW(z.inverse(), std::domain_error);
  EXPECT_THROW(Matrix(2, 3).inverse(), std::invalid_argument);
}

TEST(Matrix, Cholesky) {
  // A = L L^T for a hand-built SPD matrix.
  const Matrix l_true{{2.0, 0.0}, {1.0, 3.0}};
  const Matrix a = l_true * l_true.transposed();
  const Matrix l = a.cholesky();
  EXPECT_LT(l.max_abs_diff(l_true), 1e-12);
  EXPECT_THROW(Matrix(2, 2, 0.0).cholesky(), std::domain_error);
}

TEST(Bbox, CornersAndArea) {
  const Bbox b = Bbox::from_corners(10.0, 20.0, 30.0, 60.0);
  EXPECT_DOUBLE_EQ(b.cx, 20.0);
  EXPECT_DOUBLE_EQ(b.cy, 40.0);
  EXPECT_DOUBLE_EQ(b.w, 20.0);
  EXPECT_DOUBLE_EQ(b.h, 40.0);
  EXPECT_DOUBLE_EQ(b.area(), 800.0);
  EXPECT_DOUBLE_EQ(b.left(), 10.0);
  EXPECT_DOUBLE_EQ(b.bottom(), 60.0);
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(Bbox{}.valid());
}

TEST(Bbox, IouIdentityAndDisjoint) {
  const Bbox a{0.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(iou(a, a), 1.0);
  const Bbox far{100.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(iou(a, far), 0.0);
}

TEST(Bbox, IouKnownValue) {
  // Two unit-area boxes overlapping by half.
  const Bbox a{0.0, 0.0, 2.0, 2.0};
  const Bbox b{1.0, 0.0, 2.0, 2.0};
  // intersection = 1x2 = 2, union = 4 + 4 - 2 = 6.
  EXPECT_NEAR(iou(a, b), 2.0 / 6.0, 1e-12);
}

/// Property sweep: IoU of a translated copy is symmetric, bounded, and
/// monotonically non-increasing with |shift|.
class IouShiftTest : public ::testing::TestWithParam<double> {};

TEST_P(IouShiftTest, SymmetricBoundedMonotone) {
  const double w = GetParam();
  const Bbox base{50.0, 50.0, w, w * 1.5};
  double prev = 1.0;
  for (double shift = 0.0; shift <= 2.0 * w; shift += w / 8.0) {
    const Bbox moved = base.translated(shift, 0.0);
    const double o = iou(base, moved);
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
    EXPECT_LE(o, prev + 1e-12);  // monotone non-increasing
    EXPECT_NEAR(o, iou(moved, base), 1e-12);  // symmetric
    prev = o;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IouShiftTest,
                         ::testing::Values(4.0, 16.0, 64.0, 200.0));

TEST(Bbox, PureTranslationIouFormula) {
  // For equal boxes translated dx < w: IoU = (w-dx)h / ((2w - (w-dx))h)
  const double w = 20.0;
  const Bbox a{0.0, 0.0, w, 10.0};
  for (double dx = 0.0; dx < w; dx += 2.5) {
    const double expected = (w - dx) / (w + dx);
    EXPECT_NEAR(iou(a, a.translated(dx, 0.0)), expected, 1e-12);
  }
}


// ------------------------------------- destination-passing kernel layer

// The `*_into` kernels carry a bit-identity contract against the
// allocating operators (same i-k-j accumulation order, same
// skip-exact-zero shortcut); these sweeps enforce it bitwise — including
// sign-of-zero — across shapes, sparsity, and negative zeros.

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto ad = a.data();
  const auto bd = b.data();
  return std::memcmp(ad.data(), bd.data(), ad.size() * sizeof(double)) == 0;
}

/// Reference implementations: the historical allocating loops, kept here
/// verbatim so the kernel sweep is non-circular (the operators now delegate
/// to the kernels, so comparing operator vs kernel alone would be vacuous).
Matrix reference_multiply(const Matrix& a, const Matrix& b) {
  Matrix r(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double v = a(i, k);
      if (v == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        r(i, j) += v * b(k, j);
      }
    }
  }
  return r;
}

Matrix reference_inverse(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix a = m;
  Matrix inv = Matrix::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-12) {
      throw std::domain_error("singular");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a(col, j), a(pivot, j));
        std::swap(inv(col, j), inv(pivot, j));
      }
    }
    const double d = a(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      a(col, j) /= d;
      inv(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = a(r, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a(r, j) -= f * a(col, j);
        inv(r, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

/// Random matrix with exact zeros and negatives mixed in (the zero-skip
/// path and -0.0 handling must match, not just "close" values).
Matrix random_matrix(std::size_t r, std::size_t c, stats::Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.data()) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.15) {
      v = 0.0;
    } else if (roll < 0.2) {
      v = -0.0;
    } else {
      v = rng.uniform(-3.0, 3.0);
    }
  }
  return m;
}

// Sizes 1..8 hit every leftover-row count of multiply_into's 4-row tile;
// with 13 and 33 every leftover-column count of its 8-column tile too.
TEST(MatrixKernels, MultiplyIntoMatchesOperatorBitwise) {
  stats::Rng rng(101);
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 33};
  for (const std::size_t r : sizes) {
    for (const std::size_t k : sizes) {
      for (const std::size_t c : sizes) {
        const Matrix a = random_matrix(r, k, rng);
        const Matrix b = random_matrix(k, c, rng);
        Matrix out;
        multiply_into(a, b, out);
        const Matrix expected = reference_multiply(a, b);
        EXPECT_TRUE(bitwise_equal(out, expected))
            << r << "x" << k << " * " << k << "x" << c;
        EXPECT_TRUE(bitwise_equal(a * b, expected));
      }
    }
  }
}

// The oracle trainer's products: forward W * x, gw = grad * x^T and
// grad_in = W^T * grad for the 6-100-100-50-1 network at batch 64, plus
// the 118-sample evaluation of the last layer.
TEST(MatrixKernels, TrainingShapesMatchBitwise) {
  stats::Rng rng(108);
  const std::size_t shapes[][3] = {
      {100, 6, 64}, {100, 100, 64}, {50, 100, 50}, {1, 50, 118}, {100, 64, 6}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    Matrix out;
    multiply_into(a, b, out);
    EXPECT_TRUE(bitwise_equal(out, reference_multiply(a, b)))
        << s[0] << "x" << s[1] << " * " << s[1] << "x" << s[2];
  }
}

// An exact zero in `a` skips its term, so 0 * inf or 0 * NaN in `b` must not
// reach the sum (the result stays finite and bitwise equal); inf and NaN in
// `a` must propagate as the skip-zero loop propagates them. There NaN
// results compare equal whatever their payload: which of two NaN operands
// an add returns depends on operand order, which IEEE 754 leaves open.
TEST(MatrixKernels, NonFiniteOperandsMatchSkipZeroLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto same = [](const Matrix& x, const Matrix& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (std::size_t i = 0; i < x.data().size(); ++i) {
      const double u = x.data()[i];
      const double v = y.data()[i];
      if (std::isnan(u) && std::isnan(v)) continue;
      if (std::memcmp(&u, &v, sizeof u) != 0) return false;
    }
    return true;
  };
  stats::Rng rng(109);
  for (const std::size_t r : {1u, 3u, 4u, 9u}) {
    for (const std::size_t c : {1u, 5u, 8u, 13u}) {
      for (const double bad : {inf, -inf, nan}) {
        const std::size_t k = 6;
        // inf / NaN in b, facing a column of exact +0 and -0 in a.
        Matrix a = random_matrix(r, k, rng);
        Matrix b = random_matrix(k, c, rng);
        for (std::size_t i = 0; i < r; ++i) a(i, 2) = i % 2 == 0 ? 0.0 : -0.0;
        for (std::size_t j = 0; j < c; ++j) b(2, j) = bad;
        Matrix out;
        multiply_into(a, b, out);
        Matrix expected = reference_multiply(a, b);
        EXPECT_TRUE(bitwise_equal(out, expected))
            << "b " << bad << " " << r << "x" << c;
        for (const double v : out.data()) EXPECT_TRUE(std::isfinite(v));

        // inf / NaN in a (b finite, with exact zeros).
        a = random_matrix(r, k, rng);
        b = random_matrix(k, c, rng);
        a(r - 1, 1) = bad;
        b(1, 0) = 0.0;
        multiply_into(a, b, out);
        expected = reference_multiply(a, b);
        EXPECT_TRUE(same(out, expected)) << "a " << bad << " " << r << "x" << c;
      }
    }
  }
}

TEST(MatrixKernels, TransposeIntoMatchesTransposedBitwise) {
  stats::Rng rng(102);
  Matrix out(3, 3, 0.123);  // stale shape and contents must not leak
  for (const std::size_t r : {1u, 2u, 5u, 16u, 33u}) {
    for (const std::size_t c : {1u, 3u, 8u, 17u}) {
      const Matrix a = random_matrix(r, c, rng);
      transpose_into(a, out);
      EXPECT_TRUE(bitwise_equal(out, a.transposed())) << r << "x" << c;
    }
  }
}

// The dense layer's backward products: gw = grad * x^T and
// grad_in = W^T * grad, each a materialized transpose fed to the tiled
// multiply_into, must match the historical loop on the transposed operand
// bit for bit.
TEST(MatrixKernels, MultiplyByMaterializedTransposeMatchesBitwise) {
  stats::Rng rng(106);
  const std::size_t sizes[] = {1, 2, 3, 4, 6, 8, 11, 16, 17, 33};
  for (const std::size_t r : sizes) {
    for (const std::size_t k : sizes) {
      for (const std::size_t c : sizes) {
        Matrix scratch;
        Matrix out;
        const Matrix a = random_matrix(r, k, rng);
        const Matrix bt = random_matrix(c, k, rng);  // b^T operand
        transpose_into(bt, scratch);
        multiply_into(a, scratch, out);
        EXPECT_TRUE(
            bitwise_equal(out, reference_multiply(a, bt.transposed())))
            << "a*b^T " << r << "x" << k << ", " << c << "x" << k;

        const Matrix at = random_matrix(k, r, rng);  // a^T operand
        const Matrix b = random_matrix(k, c, rng);
        transpose_into(at, scratch);
        multiply_into(scratch, b, out);
        EXPECT_TRUE(
            bitwise_equal(out, reference_multiply(at.transposed(), b)))
            << "a^T*b " << k << "x" << r << ", " << k << "x" << c;
      }
    }
  }
}

TEST(MatrixKernels, AddSubtractAffineMatchBitwise) {
  stats::Rng rng(103);
  for (const std::size_t r : {1u, 3u, 5u, 8u, 17u}) {
    for (const std::size_t c : {1u, 2u, 7u, 16u}) {
      const Matrix a = random_matrix(r, c, rng);
      const Matrix b = random_matrix(r, c, rng);
      Matrix out;
      add_into(a, b, out);
      EXPECT_TRUE(bitwise_equal(out, a + b));
      subtract_into(a, b, out);
      EXPECT_TRUE(bitwise_equal(out, a - b));

      // affine_into mirrors the dense-layer forward: w*x then a per-row
      // bias add.
      const Matrix w = random_matrix(r, 5, rng);
      const Matrix x = random_matrix(5, c, rng);
      const Matrix bias = random_matrix(r, 1, rng);
      affine_into(w, x, bias, out);
      Matrix expected = reference_multiply(w, x);
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
          expected(i, j) += bias(i, 0);
        }
      }
      EXPECT_TRUE(bitwise_equal(out, expected));
    }
  }
}

TEST(MatrixKernels, InvertIntoMatchesInverseBitwise) {
  stats::Rng rng(104);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
    // Diagonally-dominant => well-conditioned and invertible.
    Matrix a = random_matrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
    Matrix scratch;
    Matrix out;
    invert_into(a, scratch, out);
    const Matrix expected = reference_inverse(a);
    EXPECT_TRUE(bitwise_equal(out, expected));
    EXPECT_TRUE(bitwise_equal(a.inverse(), expected));
  }
  Matrix singular(3, 3, 0.0);
  Matrix scratch;
  Matrix out;
  EXPECT_THROW(invert_into(singular, scratch, out), std::domain_error);
}

TEST(MatrixKernels, ShapeAndAliasViolationsThrow) {
  Matrix a(2, 3, 1.0);
  Matrix b(4, 2, 1.0);
  Matrix out;
  EXPECT_THROW(multiply_into(a, b, out), std::invalid_argument);
  EXPECT_THROW(transpose_into(a, a), std::invalid_argument);
  EXPECT_THROW(add_into(a, Matrix(3, 2, 1.0), out), std::invalid_argument);
  EXPECT_THROW(subtract_into(a, Matrix(3, 3, 1.0), out),
               std::invalid_argument);

  Matrix sq(3, 3, 1.0);
  EXPECT_THROW(multiply_into(sq, sq, sq), std::invalid_argument);
  Matrix c(3, 3, 2.0);
  EXPECT_THROW(multiply_into(sq, c, c), std::invalid_argument);
  Matrix scratch;
  EXPECT_THROW(invert_into(sq, scratch, sq), std::invalid_argument);
  EXPECT_THROW(invert_into(sq, sq, scratch), std::invalid_argument);
}

TEST(MatrixKernels, ResizeReusesStorageWithoutShrinking) {
  Matrix m(8, 8, 1.0);
  const double* before = m.data().data();
  m.resize(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  // Shrinking then growing back within the original footprint must not
  // move the storage (the workspace reuse the hot paths depend on).
  m.resize(8, 8);
  EXPECT_EQ(m.data().data(), before);
  m.resize(2, 3);
  EXPECT_EQ(m.data().data(), before);
}

}  // namespace
}  // namespace rt::math
