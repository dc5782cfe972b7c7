// Golden equivalence suite for the blocked dense kernels. The tiled GEMM,
// blocked right-looking Cholesky, multi-RHS triangular solve, and
// triangular-inverse paths must agree with straightforward reference
// implementations across sizes that exercise both full tiles and odd tails
// (1, 2, 7, 31, 64, 65), and must be bit-identical across repeated runs.
// The register-tiled Cholesky factor and the vector solve must further
// match the plain blocked kernels they replaced bit for bit, across panel
// boundaries and into a fifth panel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include <cstdint>
#include <optional>

#include "src/la/cholesky.hpp"
#include "src/la/matrix.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"

namespace cpla::la {
namespace {

Matrix random_dense(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng->normal();
  return m;
}

Matrix random_spd(std::size_t n, Rng* rng) {
  Matrix g = random_dense(n, n, rng);
  Matrix a = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Matrix reference_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = sum;
    }
  }
  return out;
}

// Unblocked left-looking Cholesky, the pre-blocking algorithm.
Matrix reference_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    EXPECT_GT(diag, 0.0);
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return l;
}

double rel_diff(const Matrix& a, const Matrix& b) {
  Matrix d = a - b;
  return frob_norm(d) / (1.0 + frob_norm(a));
}

class KernelSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelSizes, GemmMatchesReference) {
  Rng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_dense(n, n, &rng);
  const Matrix b = random_dense(n, n, &rng);
  EXPECT_LE(rel_diff(a * b, reference_gemm(a, b)), 1e-12);
}

TEST_P(KernelSizes, GemmRectangularMatchesReference) {
  Rng rng(200 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_dense(n, n + 3, &rng);
  const Matrix b = random_dense(n + 3, 2 * n + 1, &rng);
  EXPECT_LE(rel_diff(a * b, reference_gemm(a, b)), 1e-12);
}

TEST_P(KernelSizes, CholeskyFactorMatchesReference) {
  Rng rng(300 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix ref = reference_cholesky(a);
  EXPECT_LE(rel_diff(chol->l(), ref), 1e-10);
  // And L L^T reconstructs A.
  EXPECT_LE(rel_diff(chol->l() * chol->l().transposed(), a), 1e-10);
}

TEST_P(KernelSizes, MultiRhsSolveMatchesColumnwise) {
  Rng rng(400 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix b = random_dense(n, n + 2, &rng);
  const Matrix x = chol->solve(b);
  ASSERT_EQ(x.rows(), n);
  ASSERT_EQ(x.cols(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    Vector col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
    const Vector ref = chol->solve(col);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(x(r, c), ref[r], 1e-10 * (1.0 + std::fabs(ref[r])))
          << "col " << c << " row " << r;
    }
  }
  // Residual check against the original system.
  EXPECT_LE(rel_diff(a * x, b), 1e-9);
}

TEST_P(KernelSizes, InverseMatchesSolveIdentity) {
  Rng rng(500 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix inv = chol->inverse();
  EXPECT_LE(rel_diff(inv, chol->solve(Matrix::identity(n))), 1e-9);
  EXPECT_LE(rel_diff(a * inv, Matrix::identity(n)), 1e-9);
  // The triangular-inverse construction is symmetric by construction.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c) EXPECT_DOUBLE_EQ(inv(r, c), inv(c, r));
}

INSTANTIATE_TEST_SUITE_P(OddTails, KernelSizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{7},
                                           std::size_t{31}, std::size_t{64}, std::size_t{65}));

TEST(KernelDeterminism, RepeatedRunsBitIdentical) {
  Rng rng(42);
  const Matrix a = random_spd(65, &rng);
  const Matrix b = random_dense(65, 65, &rng);

  const Matrix p1 = a * b;
  const Matrix p2 = a * b;
  for (std::size_t r = 0; r < p1.rows(); ++r)
    for (std::size_t c = 0; c < p1.cols(); ++c) ASSERT_EQ(p1(r, c), p2(r, c));

  const auto c1 = Cholesky::factor(a);
  const auto c2 = Cholesky::factor(a);
  ASSERT_TRUE(c1 && c2);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c <= r; ++c) ASSERT_EQ(c1->l()(r, c), c2->l()(r, c));

  const Matrix i1 = c1->inverse();
  const Matrix i2 = c2->inverse();
  for (std::size_t r = 0; r < i1.rows(); ++r)
    for (std::size_t c = 0; c < i1.cols(); ++c) ASSERT_EQ(i1(r, c), i2(r, c));
}

// The blocked right-looking factorization as it stood before register
// tiling (kNb = 48, one row and one column at a time), kept verbatim as the
// bit-exact oracle for Cholesky::factor. Returns nullopt where the kernel
// must reject.
std::optional<Matrix> parent_cholesky(const Matrix& a) {
  constexpr std::size_t kNb = 48;
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.row_ptr(i);
    double* lrow = l.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) lrow[j] = arow[j];
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kNb) {
    const std::size_t jb = std::min(kNb, n - j0);
    for (std::size_t j = j0; j < j0 + jb; ++j) {
      const double* lj = l.row_ptr(j);
      double diag = lj[j];
      for (std::size_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
      if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (std::size_t i = j + 1; i < j0 + jb; ++i) {
        double* li = l.row_ptr(i);
        double sum = li[j];
        for (std::size_t k = j0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / ljj;
      }
    }
    for (std::size_t i = j0 + jb; i < n; ++i) {
      double* li = l.row_ptr(i);
      for (std::size_t j = j0; j < j0 + jb; ++j) {
        const double* lj = l.row_ptr(j);
        double sum = li[j];
        for (std::size_t k = j0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / lj[j];
      }
    }
    for (std::size_t i = j0 + jb; i < n; ++i) {
      const double* li = l.row_ptr(i) + j0;
      for (std::size_t j = j0 + jb; j <= i; ++j) {
        const double* lj = l.row_ptr(j) + j0;
        double sum = 0.0;
        for (std::size_t k = 0; k < jb; ++k) sum += li[k] * lj[k];
        l(i, j) -= sum;
      }
    }
  }
  return l;
}

// The vector solve as it stood before row-pointer access, verbatim.
Vector parent_solve(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* li = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * y[k];
    y[i] = sum / li[i];
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

// Sizes straddle the 48-wide panel boundary (47/48/49, 95/96/97) and reach
// a third panel (140) and a fifth (200).
class TiledCholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TiledCholeskySizes, FactorIsBitwiseTheParentKernel) {
  Rng rng(600 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, &rng);
  const auto chol = Cholesky::factor(a);
  const auto ref = parent_cholesky(a);
  ASSERT_TRUE(chol.has_value());
  ASSERT_TRUE(ref.has_value());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) ASSERT_EQ(chol->l()(r, c), (*ref)(r, c)) << r << "," << c;
}

TEST_P(TiledCholeskySizes, VectorSolveIsBitwiseTheParentKernel) {
  Rng rng(700 + GetParam());
  const std::size_t n = GetParam();
  const auto chol = Cholesky::factor(random_spd(n, &rng));
  ASSERT_TRUE(chol.has_value());
  Vector b(n);
  for (double& v : b) v = rng.normal();
  const Vector x = chol->solve(b);
  const Vector ref = parent_solve(chol->l(), b);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x[i], ref[i]) << i;
}

// Indefinite and singular inputs: both kernels reject, and the counters
// move exactly as the parent's did (one factor, one failure per attempt).
TEST_P(TiledCholeskySizes, RejectsWhereTheParentKernelRejects) {
  const std::size_t n = GetParam();
  Rng rng(800 + n);
  Matrix indefinite = random_spd(n, &rng);
  indefinite(n - 1, n - 1) = -1.0;  // pivot n-1 goes negative: the last one
  Matrix early = random_spd(n, &rng);
  early(n / 2, n / 2) = -static_cast<double>(n);  // fails mid-factorization
  Matrix singular = random_spd(n, &rng);  // row/column n/3 zeroed: exact zero pivot
  for (std::size_t k = 0; k < n; ++k) singular(n / 3, k) = singular(k, n / 3) = 0.0;
  Matrix zero(n, n);
  obs::Counter& factors = obs::metrics().counter("la.cholesky.factors");
  obs::Counter& failures = obs::metrics().counter("la.cholesky.failures");
  for (const Matrix* a : {&indefinite, &early, &singular, &zero}) {
    const std::int64_t f0 = factors.value();
    const std::int64_t x0 = failures.value();
    EXPECT_FALSE(parent_cholesky(*a).has_value());
    EXPECT_FALSE(Cholesky::factor(*a).has_value());
    EXPECT_EQ(factors.value() - f0, 1);
    EXPECT_EQ(failures.value() - x0, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(PanelEdges, TiledCholeskySizes,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                           std::size_t{5}, std::size_t{47}, std::size_t{48},
                                           std::size_t{49}, std::size_t{95}, std::size_t{96},
                                           std::size_t{97}, std::size_t{140}, std::size_t{200}));

}  // namespace
}  // namespace cpla::la
