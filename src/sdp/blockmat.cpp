#include "src/sdp/blockmat.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>

#include "src/util/check.hpp"

namespace cpla::sdp {

namespace {

/// Whether a per-block loop forks an OpenMP team: only with at least two
/// dense blocks. With one (the lifted partition SDPs are a dense block
/// plus a diagonal slack block) a single thread gets all the dense work,
/// so the team's fork/join is pure overhead — and the flow pays it on
/// every kernel call of every partition solve.
bool fork_over_blocks(const BlockStructure& structure) {
  int dense = 0;
  for (const BlockSpec& b : structure) dense += b.kind == BlockSpec::Kind::kDense;
  return dense > 1;
}

}  // namespace

int total_dim(const BlockStructure& structure) {
  int n = 0;
  for (const auto& b : structure) n += b.dim;
  return n;
}

BlockMatrix::BlockMatrix(const BlockStructure& structure) : structure_(structure) {
  dense_.resize(structure_.size());
  diag_.resize(structure_.size());
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    const auto dim = static_cast<std::size_t>(structure_[k].dim);
    if (structure_[k].kind == BlockSpec::Kind::kDense) {
      dense_[k] = la::Matrix(dim, dim);
    } else {
      diag_[k].assign(dim, 0.0);
    }
  }
}

BlockMatrix BlockMatrix::scaled_identity(const BlockStructure& structure, double alpha) {
  BlockMatrix m(structure);
  for (std::size_t k = 0; k < structure.size(); ++k) {
    if (m.is_dense(k)) {
      for (std::size_t i = 0; i < m.dense(k).rows(); ++i) m.dense(k)(i, i) = alpha;
    } else {
      for (double& v : m.diag(k)) v = alpha;
    }
  }
  return m;
}

la::Matrix& BlockMatrix::dense(std::size_t block) {
  CPLA_ASSERT(is_dense(block));
  return dense_[block];
}
const la::Matrix& BlockMatrix::dense(std::size_t block) const {
  CPLA_ASSERT(is_dense(block));
  return dense_[block];
}
la::Vector& BlockMatrix::diag(std::size_t block) {
  CPLA_ASSERT(!is_dense(block));
  return diag_[block];
}
const la::Vector& BlockMatrix::diag(std::size_t block) const {
  CPLA_ASSERT(!is_dense(block));
  return diag_[block];
}

void BlockMatrix::set_zero() {
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (is_dense(k)) {
      dense_[k].scale(0.0);
    } else {
      for (double& v : diag_[k]) v = 0.0;
    }
  }
}

void BlockMatrix::scale(double alpha) {
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (is_dense(k)) {
      dense_[k].scale(alpha);
    } else {
      for (double& v : diag_[k]) v *= alpha;
    }
  }
}

void BlockMatrix::axpy(double alpha, const BlockMatrix& other, bool parallel) {
  CPLA_ASSERT(structure_.size() == other.structure_.size());
  const auto nb = static_cast<std::int64_t>(structure_.size());
  const auto body = [&](std::size_t k) {
    if (is_dense(k)) {
      dense_[k].axpy(alpha, other.dense_[k]);
    } else {
      for (std::size_t i = 0; i < diag_[k].size(); ++i) diag_[k][i] += alpha * other.diag_[k][i];
    }
  };
  // Explicit branch (not an `if` clause on the pragma): a serial call must
  // never enter the OpenMP runtime — team setup costs dominate on the tiny
  // blocks the step backtracker hammers.
#ifdef _OPENMP
  if (parallel && fork_over_blocks(structure_)) {
#pragma omp parallel for schedule(static)
    for (std::int64_t kk = 0; kk < nb; ++kk) body(static_cast<std::size_t>(kk));
    return;
  }
#else
  (void)parallel;
  (void)nb;
#endif
  for (std::size_t k = 0; k < structure_.size(); ++k) body(k);
}

void BlockMatrix::symmetrize() {
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (is_dense(k)) dense_[k].symmetrize();
  }
}

double BlockMatrix::inner(const BlockMatrix& other, bool parallel) const {
  // Per-block partial sums, reduced serially in block order: the total is
  // bit-identical regardless of thread count (an OpenMP `reduction` clause
  // would combine partials in a thread-dependent order).
  const auto nb = static_cast<std::int64_t>(structure_.size());
  la::Vector partial(structure_.size(), 0.0);
  const auto body = [&](std::size_t k) {
    partial[k] = is_dense(k) ? la::dot(dense_[k], other.dense_[k])
                             : la::dot(diag_[k], other.diag_[k]);
  };
#ifdef _OPENMP
  if (parallel && fork_over_blocks(structure_)) {
#pragma omp parallel for schedule(static)
    for (std::int64_t kk = 0; kk < nb; ++kk) body(static_cast<std::size_t>(kk));
  } else {
    for (std::size_t k = 0; k < structure_.size(); ++k) body(k);
  }
#else
  (void)parallel;
  (void)nb;
  for (std::size_t k = 0; k < structure_.size(); ++k) body(k);
#endif
  double sum = 0.0;
  for (double v : partial) sum += v;
  return sum;
}

double BlockMatrix::trace() const {
  double sum = 0.0;
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (is_dense(k)) {
      for (std::size_t i = 0; i < dense_[k].rows(); ++i) sum += dense_[k](i, i);
    } else {
      for (double v : diag_[k]) sum += v;
    }
  }
  return sum;
}

double BlockMatrix::frob_norm(bool parallel) const { return std::sqrt(inner(*this, parallel)); }

double BlockMatrix::max_abs() const {
  double best = 0.0;
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (is_dense(k)) {
      best = std::max(best, dense_[k].max_abs());
    } else {
      for (double v : diag_[k]) best = std::max(best, std::fabs(v));
    }
  }
  return best;
}

BlockMatrix multiply(const BlockMatrix& a, const BlockMatrix& b, bool parallel) {
  CPLA_ASSERT(a.structure().size() == b.structure().size());
  BlockMatrix out(a.structure());
  const auto nb = static_cast<std::int64_t>(a.num_blocks());
  const auto body = [&](std::size_t k) {
    if (a.is_dense(k)) {
      out.dense(k) = a.dense(k) * b.dense(k);
    } else {
      for (std::size_t i = 0; i < a.diag(k).size(); ++i) {
        out.diag(k)[i] = a.diag(k)[i] * b.diag(k)[i];
      }
    }
  };
#ifdef _OPENMP
  if (parallel && fork_over_blocks(a.structure())) {
#pragma omp parallel for schedule(static)
    for (std::int64_t kk = 0; kk < nb; ++kk) body(static_cast<std::size_t>(kk));
    return out;
  }
#else
  (void)parallel;
  (void)nb;
#endif
  for (std::size_t k = 0; k < a.num_blocks(); ++k) body(k);
  return out;
}

std::optional<BlockCholesky> BlockCholesky::factor(const BlockMatrix& a, bool parallel) {
  BlockCholesky out;
  out.structure_ = a.structure();
  out.chol_.resize(a.num_blocks());
  out.diag_.resize(a.num_blocks());
  const auto nb = static_cast<std::int64_t>(a.num_blocks());
  // Parallel runs factor every block (no early exit) so metric counts and
  // results stay independent of thread timing; blocks are written only by
  // their owning iteration.
  std::vector<char> ok(a.num_blocks(), 1);
  const auto body = [&](std::size_t k) {
    if (a.is_dense(k)) {
      auto c = la::Cholesky::factor(a.dense(k));
      if (!c) {
        ok[k] = 0;
      } else {
        out.chol_[k] = std::move(c);
      }
    } else {
      for (double v : a.diag(k)) {
        if (!(v > 0.0) || !std::isfinite(v)) {
          ok[k] = 0;
          break;
        }
      }
      if (ok[k] != 0) out.diag_[k] = a.diag(k);
    }
  };
#ifdef _OPENMP
  if (parallel && fork_over_blocks(a.structure())) {
#pragma omp parallel for schedule(static)
    for (std::int64_t kk = 0; kk < nb; ++kk) body(static_cast<std::size_t>(kk));
  } else {
    for (std::size_t k = 0; k < a.num_blocks(); ++k) body(k);
  }
#else
  (void)parallel;
  (void)nb;
  for (std::size_t k = 0; k < a.num_blocks(); ++k) body(k);
#endif
  for (char v : ok) {
    if (v == 0) return std::nullopt;
  }
  return out;
}

BlockMatrix BlockCholesky::inverse() const {
  BlockMatrix out(structure_);
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (structure_[k].kind == BlockSpec::Kind::kDense) {
      out.dense(k) = chol_[k]->inverse();
      out.dense(k).symmetrize();
    } else {
      for (std::size_t i = 0; i < diag_[k].size(); ++i) out.diag(k)[i] = 1.0 / diag_[k][i];
    }
  }
  return out;
}

double BlockCholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t k = 0; k < structure_.size(); ++k) {
    if (structure_[k].kind == BlockSpec::Kind::kDense) {
      sum += chol_[k]->log_det();
    } else {
      for (double v : diag_[k]) sum += std::log(v);
    }
  }
  return sum;
}

bool is_positive_definite(const BlockMatrix& a, double shift) {
  if (shift == 0.0) return BlockCholesky::factor(a).has_value();
  BlockMatrix shifted = a;
  shifted.axpy(shift, BlockMatrix::scaled_identity(a.structure(), 1.0));
  return BlockCholesky::factor(shifted).has_value();
}

}  // namespace cpla::sdp
