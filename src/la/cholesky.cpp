#include "src/la/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"

namespace cpla::la {

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  CPLA_ASSERT(a.rows() == a.cols());
  static obs::Counter& factors = obs::metrics().counter("la.cholesky.factors");
  static obs::Counter& failures = obs::metrics().counter("la.cholesky.failures");
  factors.add();
  if (CPLA_FAULT_POINT("la.cholesky.factor")) {
    failures.add();
    return std::nullopt;
  }
  // Blocked right-looking factorization over kNb-wide panels: factor each
  // panel column by column down to the last row, then fold the panel into
  // the trailing submatrix with row-dot updates. The panel width is a
  // compile-time constant, and every entry accumulates over k in ascending
  // order from the same starting value whatever tile it lands in, so the
  // factor is bit-identical run to run (and to the untiled kernel). The
  // tiles only run independent accumulations side by side: 4 rows share
  // each l_j load in a panel column, and one trailing row meets 4 columns.
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
    const std::size_t j1 = j0 + jb;
    // Panel columns (contributions from columns < j0 were already
    // subtracted by earlier trailing updates): the pivot, then every row
    // below it, L(i,j) = (A(i,j) - sum_{j0<=k<j} L(i,k) L(j,k)) / L(j,j).
    for (std::size_t j = j0; j < j1; ++j) {
      double* lj = l.row_ptr(j);
      double diag = lj[j];
      for (std::size_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
      if (!(diag > 0.0) || !std::isfinite(diag)) {
        failures.add();
        return std::nullopt;
      }
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      std::size_t i = j + 1;
      for (; i + 4 <= n; i += 4) {
        double* r0 = l.row_ptr(i);
        double* r1 = l.row_ptr(i + 1);
        double* r2 = l.row_ptr(i + 2);
        double* r3 = l.row_ptr(i + 3);
        double s0 = r0[j], s1 = r1[j], s2 = r2[j], s3 = r3[j];
        for (std::size_t k = j0; k < j; ++k) {
          const double v = lj[k];
          s0 -= r0[k] * v;
          s1 -= r1[k] * v;
          s2 -= r2[k] * v;
          s3 -= r3[k] * v;
        }
        r0[j] = s0 / ljj;
        r1[j] = s1 / ljj;
        r2[j] = s2 / ljj;
        r3[j] = s3 / ljj;
      }
      for (; i < n; ++i) {
        double* li = l.row_ptr(i);
        double sum = li[j];
        for (std::size_t k = j0; k < j; ++k) sum -= li[k] * lj[k];
        li[j] = sum / ljj;
      }
    }
    // Trailing update: A22 -= L21 L21^T (lower triangle only), as dot
    // products of contiguous panel rows, one row against 4 columns.
    for (std::size_t r = j1; r < n; ++r) {
      double* lrow = l.row_ptr(r);
      const double* lr = lrow + j0;
      std::size_t j = j1;
      for (; j + 4 <= r + 1; j += 4) {
        const double* c0 = l.row_ptr(j) + j0;
        const double* c1 = l.row_ptr(j + 1) + j0;
        const double* c2 = l.row_ptr(j + 2) + j0;
        const double* c3 = l.row_ptr(j + 3) + j0;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t k = 0; k < jb; ++k) {
          const double v = lr[k];
          s0 += v * c0[k];
          s1 += v * c1[k];
          s2 += v * c2[k];
          s3 += v * c3[k];
        }
        lrow[j] -= s0;
        lrow[j + 1] -= s1;
        lrow[j + 2] -= s2;
        lrow[j + 3] -= s3;
      }
      for (; j <= r; ++j) {
        const double* lj = l.row_ptr(j) + j0;
        double sum = 0.0;
        for (std::size_t k = 0; k < jb; ++k) sum += lr[k] * lj[k];
        lrow[j] -= sum;
      }
    }
  }
  return Cholesky(std::move(l));
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  CPLA_ASSERT(b.size() == n);
  Vector y(n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* li = l_.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * y[k];
    y[i] = sum / li[i];
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l_.row_ptr(k)[ii] * x[k];
    x[ii] = sum / l_.row_ptr(ii)[ii];
  }
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  const std::size_t n = dim();
  CPLA_ASSERT(b.rows() == n);
  const std::size_t m = b.cols();
  // True multi-RHS substitution: all columns move through the forward and
  // backward sweeps together as contiguous row operations, instead of
  // copying out one column at a time. Per column the arithmetic order is
  // identical to the single-RHS path.
  Matrix x = b;
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.row_ptr(i);
    const double* li = l_.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* xk = x.row_ptr(k);
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lik * xk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c < m; ++c) xi[c] /= lii;
  }
  for (std::size_t i = n; i-- > 0;) {
    double* xi = x.row_ptr(i);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = l_(k, i);
      if (lki == 0.0) continue;
      const double* xk = x.row_ptr(k);
      for (std::size_t c = 0; c < m; ++c) xi[c] -= lki * xk[c];
    }
    const double lii = l_(i, i);
    for (std::size_t c = 0; c < m; ++c) xi[c] /= lii;
  }
  return x;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = dim();
  // Triangular inverse route: forward-substitute L R = I exploiting that
  // row i of R = L^{-1} has support [0..i], then form A^{-1} = R^T R from
  // R's rows (lower triangle only, mirrored at the end). Roughly 2n^3/3
  // flops with contiguous row access, versus the n^3 general solve this
  // replaced.
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* ri = r.row_ptr(i);
    const double* li = l_.row_ptr(i);
    ri[i] = 1.0;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      if (lik == 0.0) continue;
      const double* rk = r.row_ptr(k);
      for (std::size_t c = 0; c <= k; ++c) ri[c] -= lik * rk[c];
    }
    const double lii = li[i];
    for (std::size_t c = 0; c <= i; ++c) ri[c] /= lii;
  }
  Matrix out(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double* rk = r.row_ptr(k);
    for (std::size_t i = 0; i <= k; ++i) {
      const double v = rk[i];
      if (v == 0.0) continue;
      double* oi = out.row_ptr(i);
      for (std::size_t c = 0; c <= i; ++c) oi[c] += v * rk[c];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < i; ++c) out(c, i) = out(i, c);
  }
  return out;
}

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

bool is_positive_definite(const Matrix& a, double shift) {
  Matrix shifted = a;
  if (shift != 0.0) {
    for (std::size_t i = 0; i < a.rows(); ++i) shifted(i, i) += shift;
  }
  return Cholesky::factor(shifted).has_value();
}

}  // namespace cpla::la
