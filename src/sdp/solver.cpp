#include "src/sdp/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/la/lu.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace cpla::sdp {

const char* to_string(SdpStatus status) {
  switch (status) {
    case SdpStatus::kOptimal: return "optimal";
    case SdpStatus::kStalled: return "stalled";
    case SdpStatus::kIterLimit: return "iteration-limit";
    case SdpStatus::kNumerical: return "numerical-failure";
    case SdpStatus::kDeadline: return "deadline-exceeded";
    case SdpStatus::kBadProblem: return "bad-problem";
  }
  return "?";
}

namespace {

// Each corrector step goes this fraction of the way to the PSD boundary.
constexpr double kStepFraction = 0.98;

/// tr(A_i W) for a general (possibly nonsymmetric) W.
double constraint_trace(const SdpProblem& p, int i, const BlockMatrix& w) {
  double sum = 0.0;
  for (const auto& e : p.constraint(i).entries) {
    if (w.is_dense(e.block)) {
      const auto& wb = w.dense(e.block);
      sum += (e.row == e.col) ? e.value * wb(e.row, e.row)
                              : e.value * (wb(e.row, e.col) + wb(e.col, e.row));
    } else {
      sum += e.value * w.diag(e.block)[e.row];
    }
  }
  return sum;
}

/// Largest alpha in (0, 1] with base + alpha*dir positive definite, times
/// `fraction`. Backtracking on the Cholesky test. One scratch copy total:
/// each try adjusts the trial in place by the alpha delta (the previous
/// version re-copied the full BlockMatrix on every one of up to 60 tries).
double max_step(const BlockMatrix& base, const BlockMatrix& dir, double fraction,
                bool parallel) {
  BlockMatrix trial = base;
  double applied = 0.0;
  double alpha = 1.0;
  for (int tries = 0; tries < 60; ++tries) {
    const double step = fraction * alpha;
    trial.axpy(step - applied, dir, parallel);
    applied = step;
    if (BlockCholesky::factor(trial, parallel).has_value()) return step;
    alpha *= 0.7;
  }
  return 0.0;
}

using Clock = std::chrono::steady_clock;

/// Wall time of the four interior-point leaves, summed over one solve in
/// clock ticks so the unattributed remainder (sdp.solve.ms minus the four)
/// is never negative.
struct LeafTimes {
  Clock::duration schur{};      // Schur complement assembly
  Clock::duration factor{};     // Schur Cholesky, ridge retries included
  Clock::duration direction{};  // predictor + corrector direction solves
  Clock::duration step{};       // the four max_step searches
};

/// Adds the lifetime of the scope to one leaf.
class LeafTimer {
 public:
  explicit LeafTimer(Clock::duration* sink) : sink_(sink), start_(Clock::now()) {}
  ~LeafTimer() { *sink_ += Clock::now() - start_; }
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;

 private:
  Clock::duration* sink_;
  Clock::time_point start_;
};

double to_ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

}  // namespace

namespace detail {

SchurAssembly::SchurAssembly(const SdpProblem& p) : num_blocks_(p.structure().size()) {
  const int m = p.num_constraints();
  stored_at_.reserve(static_cast<std::size_t>(m) + 1);
  group_at_.reserve(static_cast<std::size_t>(m) * num_blocks_ + 1);
  stored_at_.push_back(0);
  group_at_.push_back(0);
  for (int i = 0; i < m; ++i) {
    const auto& entries = p.constraint(i).entries;
    stored_.insert(stored_.end(), entries.begin(), entries.end());
    stored_at_.push_back(stored_.size());
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      for (const auto& e : entries) {
        if (static_cast<std::size_t>(e.block) == b) grouped_.push_back({e.row, e.col, e.value});
      }
      group_at_.push_back(grouped_.size());
    }
  }
}

/// Each M_ij = tr(A_i Z^{-1} A_j X) is assembled directly from the two
/// constraints' sparse entries. Writing A as a sum of symmetrized units
/// S(r,c) = E_rc + [r!=c] E_cr, each pair of entries on one dense block
/// contributes at most four Zi(.,.)*X(.,.) products:
///
///   tr(S(a,b) Zi S(c,d) X) =            Zi(b,c) X(d,a)
///                            + [a!=b]   Zi(a,c) X(d,b)
///                            + [c!=d]   Zi(b,d) X(c,a)
///                            + [a!=b && c!=d] Zi(a,d) X(c,b)
///
/// so the cost is O(nnz_i * nnz_j), with no dense n^3 product per column.
/// Diag blocks contribute elementwise products on shared rows. The sum
/// walks e in A_i in stored order and, within it, the f in A_j on e's
/// block in stored order: the same terms in the same order as a walk over
/// all (e, f) pairs that skips mismatched blocks.
la::Matrix SchurAssembly::assemble(const BlockMatrix& zinv, const BlockMatrix& x,
                                   bool parallel) const {
  const int m = static_cast<int>(stored_at_.size()) - 1;
  const std::size_t nb = num_blocks_;
  // Per-block base pointers and row strides (dense: row-major dim x dim;
  // diag: the vector), so no product goes through a checked accessor.
  std::vector<const double*> zbase(nb);
  std::vector<const double*> xbase(nb);
  std::vector<std::size_t> stride(nb, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    if (zinv.is_dense(b)) {
      zbase[b] = zinv.dense(b).row_ptr(0);
      xbase[b] = x.dense(b).row_ptr(0);
      stride[b] = zinv.dense(b).cols();
    } else {
      zbase[b] = zinv.diag(b).data();
      xbase[b] = x.diag(b).data();
    }
  }
  const ConstraintEntry* stored = stored_.data();
  const Unit* grouped = grouped_.data();
  // entry(i, j) with j's group offsets `at`: block b of A_j spans
  // [grouped + at[b], grouped + at[b + 1]).
  const auto entry = [&](int i, const std::size_t* at) {
    double sum = 0.0;
    for (std::size_t s = stored_at_[i]; s < stored_at_[i + 1]; ++s) {
      const ConstraintEntry& e = stored[s];
      const auto b = static_cast<std::size_t>(e.block);
      const Unit* f = grouped + at[b];
      const Unit* const f_end = grouped + at[b + 1];
      const auto er = static_cast<std::size_t>(e.row);
      const auto ec = static_cast<std::size_t>(e.col);
      if (stride[b] != 0) {
        const std::size_t n = stride[b];
        const double* z_er = zbase[b] + er * n;
        const double* z_ec = zbase[b] + ec * n;
        const double* xb = xbase[b];
        const bool e_off = er != ec;
        for (; f != f_end; ++f) {
          const auto fr = static_cast<std::size_t>(f->row);
          const auto fc = static_cast<std::size_t>(f->col);
          const double* x_fc = xb + fc * n;
          double t = z_ec[fr] * x_fc[er];
          if (e_off) t += z_er[fr] * x_fc[ec];
          if (fr != fc) {
            const double* x_fr = xb + fr * n;
            t += z_ec[fc] * x_fr[er];
            if (e_off) t += z_er[fc] * x_fr[ec];
          }
          sum += e.value * f->value * t;
        }
      } else {
        for (; f != f_end; ++f) {
          if (f->row == e.row) sum += e.value * f->value * zbase[b][er] * xbase[b][er];
        }
      }
    }
    return sum;
  };

  // M is symmetric exactly (trace cyclicity): entry(i, j) for i <= j is
  // summed once into row j and mirrored. Rows are independent, so they
  // parallelize without any shared reduction.
  la::Matrix schur(static_cast<std::size_t>(m), static_cast<std::size_t>(m));
  const auto schur_row = [&](int j) {
    const std::size_t* at = group_at_.data() + static_cast<std::size_t>(j) * nb;
    double* row = schur.row_ptr(static_cast<std::size_t>(j));
    for (int i = 0; i <= j; ++i) row[i] = entry(i, at);
  };
  // Explicit branch, not an `if` clause on the pragma: serial solves of
  // tiny problems must not pay OpenMP team setup every iteration. The
  // flow solves its partitions one after another (commit batch 1), each
  // with m < 160 rows at the default partition cap; forking their rows made
  // flow runs on a loaded 4-core host many times slower (DESIGN.md, "Dense
  // kernel architecture"), so only assemblies above 256 rows fork.
#ifdef _OPENMP
  if (parallel && m > 256) {
#pragma omp parallel for schedule(static, 1)
    for (int j = 0; j < m; ++j) schur_row(j);
  } else {
    for (int j = 0; j < m; ++j) schur_row(j);
  }
#else
  (void)parallel;
  for (int j = 0; j < m; ++j) schur_row(j);
#endif
  for (std::size_t j = 0; j < static_cast<std::size_t>(m); ++j) {
    const double* row = schur.row_ptr(j);
    for (std::size_t i = 0; i < j; ++i) schur(i, j) = row[i];
  }
  return schur;
}

}  // namespace detail

static SdpResult solve_impl(const SdpProblem& p, const SdpOptions& opt, LeafTimes* leaves) {
  const int m = p.num_constraints();
  const int n_total = total_dim(p.structure());
  const BlockMatrix c = p.objective_matrix();
  const la::Vector b = p.rhs_vector();
  const double b_norm = la::norm2(b);
  const double c_norm = std::max(1.0, c.frob_norm());

  // Infeasible start: scaled identities sized to the data magnitudes.
  double max_b = 1.0;
  for (double v : b) max_b = std::max(max_b, std::fabs(v));
  const double tau_p = std::max({10.0, std::sqrt(static_cast<double>(n_total)), 2.0 * max_b});
  const double tau_d = std::max({10.0, std::sqrt(static_cast<double>(n_total)),
                                 2.0 * c.max_abs()});

  SdpResult res;
  res.x = BlockMatrix::scaled_identity(p.structure(), tau_p);
  res.z = BlockMatrix::scaled_identity(p.structure(), tau_d);
  res.y.assign(static_cast<std::size_t>(m), 0.0);

  double prev_gap = std::numeric_limits<double>::infinity();
  int stall_count = 0;
  WallTimer timer;
  const detail::SchurAssembly schur_assembly(p);

  if (CPLA_FAULT_POINT("sdp.solve.numerical")) {
    res.status = SdpStatus::kNumerical;
    return res;
  }
  if (CPLA_FAULT_POINT("sdp.solve.iterlimit")) {
    res.status = SdpStatus::kIterLimit;
    return res;
  }

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (opt.time_limit_ms > 0.0 && timer.milliseconds() > opt.time_limit_ms) {
      res.status = SdpStatus::kDeadline;
      return res;
    }

    // Residuals.
    la::Vector ax = p.apply_all(res.x);
    la::Vector rp(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) rp[i] = b[i] - ax[i];
    BlockMatrix rd = c;  // Rd = C - A'(y) - Z
    la::Vector neg_y = res.y;
    for (double& v : neg_y) v = -v;
    p.accumulate_adjoint(neg_y, &rd);
    rd.axpy(-1.0, res.z);

    const double gap = res.x.inner(res.z);
    res.primal_obj = c.inner(res.x);
    res.dual_obj = la::dot(b, res.y);
    res.primal_infeas = la::norm2(rp) / (1.0 + b_norm);
    res.dual_infeas = rd.frob_norm() / c_norm;
    res.rel_gap = std::fabs(gap) / (1.0 + std::fabs(res.primal_obj) + std::fabs(res.dual_obj));

    // A non-finite iterate means the numerics have already left the rails;
    // no further step can recover, so report instead of looping on NaNs.
    if (!std::isfinite(gap) || !std::isfinite(res.primal_obj) ||
        !std::isfinite(res.primal_infeas) || !std::isfinite(res.dual_infeas)) {
      res.status = SdpStatus::kNumerical;
      return res;
    }

    if (res.primal_infeas < opt.tol && res.dual_infeas < opt.tol && res.rel_gap < opt.tol) {
      res.status = SdpStatus::kOptimal;
      return res;
    }
    if (gap > prev_gap * 0.9999 && res.rel_gap < 1e-4) {
      if (++stall_count >= 8) {
        res.status = SdpStatus::kStalled;
        return res;
      }
    } else {
      stall_count = 0;
    }
    prev_gap = gap;

    auto zchol = BlockCholesky::factor(res.z, opt.parallel);
    if (!zchol) {
      res.status = SdpStatus::kNumerical;
      return res;
    }
    const BlockMatrix zinv = zchol->inverse();

    // Schur complement M_ij = tr(A_i Z^{-1} A_j X) (see SchurAssembly).
    la::Matrix schur;
    {
      LeafTimer leaf(&leaves->schur);
      schur = schur_assembly.assemble(zinv, res.x, opt.parallel);
    }

    // The ridge-free first try factors M itself; only a retry copies it to
    // add a ridge of 1e-12 * max diag, growing 100x per try, 12 tries in all.
    std::optional<la::Cholesky> mchol;
    {
      LeafTimer leaf(&leaves->factor);
      mchol = la::Cholesky::factor(schur);
      double max_diag = 1e-12;
      for (int i = 0; i < m; ++i) max_diag = std::max(max_diag, schur(i, i));
      double ridge = 1e-12 * max_diag;
      for (int tries = 1; tries < 12 && !mchol; ++tries, ridge *= 100.0) {
        la::Matrix reg = schur;
        for (int i = 0; i < m; ++i) reg(i, i) += ridge;
        mchol = la::Cholesky::factor(reg);
      }
    }
    if (!mchol) {
      res.status = SdpStatus::kNumerical;
      return res;
    }

    // Shared pieces of the Schur rhs.
    const BlockMatrix u =
        multiply(zinv, multiply(rd, res.x, opt.parallel), opt.parallel);  // Z^{-1} Rd X
    la::Vector a_zinv(static_cast<std::size_t>(m));
    la::Vector a_u(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      a_zinv[i] = constraint_trace(p, i, zinv);
      a_u[i] = constraint_trace(p, i, u);
    }

    const double mu = gap / static_cast<double>(n_total);

    auto solve_direction = [&](double sigma_mu, const BlockMatrix* second_order,
                               la::Vector* dy, BlockMatrix* dz, BlockMatrix* dx) {
      LeafTimer leaf(&leaves->direction);
      la::Vector rhs(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        rhs[i] = b[i] - sigma_mu * a_zinv[i] + a_u[i];
        if (second_order != nullptr) rhs[i] += constraint_trace(p, i, *second_order);
      }
      *dy = mchol->solve(rhs);

      *dz = rd;  // dZ = Rd - A'(dy)
      la::Vector neg_dy = *dy;
      for (double& v : neg_dy) v = -v;
      p.accumulate_adjoint(neg_dy, dz);

      // dX = sigma*mu*Z^{-1} - X - Z^{-1} dZ X (- Z^{-1} dZaff dXaff).
      *dx = zinv;
      dx->scale(sigma_mu);
      dx->axpy(-1.0, res.x);
      dx->axpy(-1.0, multiply(zinv, multiply(*dz, res.x, opt.parallel), opt.parallel));
      if (second_order != nullptr) dx->axpy(-1.0, *second_order);
      dx->symmetrize();
    };

    // Predictor (affine scaling, sigma = 0).
    la::Vector dy_aff;
    BlockMatrix dz_aff, dx_aff;
    solve_direction(0.0, nullptr, &dy_aff, &dz_aff, &dx_aff);

    double ap_aff, ad_aff;
    {
      LeafTimer leaf(&leaves->step);
      ap_aff = max_step(res.x, dx_aff, 1.0, opt.parallel);
      ad_aff = max_step(res.z, dz_aff, 1.0, opt.parallel);
    }
    BlockMatrix x_aff = res.x;
    x_aff.axpy(ap_aff, dx_aff);
    BlockMatrix z_aff = res.z;
    z_aff.axpy(ad_aff, dz_aff);
    const double gap_aff = std::max(0.0, x_aff.inner(z_aff));
    double sigma = (gap > 1e-300) ? std::pow(gap_aff / gap, 3.0) : 0.1;
    sigma = std::clamp(sigma, 1e-4, 0.9);

    // Corrector with Mehrotra second-order term Z^{-1} dZaff dXaff.
    const BlockMatrix second =
        multiply(zinv, multiply(dz_aff, dx_aff, opt.parallel), opt.parallel);
    la::Vector dy;
    BlockMatrix dz, dx;
    solve_direction(sigma * mu, &second, &dy, &dz, &dx);

    double ap, ad;
    {
      LeafTimer leaf(&leaves->step);
      ap = max_step(res.x, dx, kStepFraction, opt.parallel);
      ad = max_step(res.z, dz, kStepFraction, opt.parallel);
    }
    ap = std::min(ap, 1.0);
    ad = std::min(ad, 1.0);
    if (ap <= 1e-10 && ad <= 1e-10) {
      res.status = SdpStatus::kStalled;
      return res;
    }

    res.x.axpy(ap, dx);
    res.z.axpy(ad, dz);
    for (int i = 0; i < m; ++i) res.y[i] += ad * dy[i];
    // Count only fully completed iterations: every early return above
    // (deadline, converged, stalled, numerical) reports the work actually
    // finished, and the iteration-limit path reports max_iterations instead
    // of max_iterations - 1.
    res.iterations = iter + 1;
  }

  res.status = SdpStatus::kIterLimit;
  return res;
}

SdpResult solve(const SdpProblem& p, const SdpOptions& opt) {
  static obs::Counter& calls = obs::metrics().counter("sdp.solve.calls");
  static obs::Counter& iterations = obs::metrics().counter("sdp.solve.iterations");
  static obs::Counter& failures = obs::metrics().counter("sdp.solve.failures");
  static obs::Counter& stalls = obs::metrics().counter("sdp.solve.stalls");
  static obs::Histogram& wall = obs::metrics().histogram("sdp.solve.ms");
  static obs::Histogram& schur_ms = obs::metrics().histogram("sdp.solve.schur_ms");
  static obs::Histogram& factor_ms = obs::metrics().histogram("sdp.solve.factor_ms");
  static obs::Histogram& direction_ms = obs::metrics().histogram("sdp.solve.direction_ms");
  static obs::Histogram& step_ms = obs::metrics().histogram("sdp.solve.step_ms");
  static obs::Histogram& other_ms = obs::metrics().histogram("sdp.solve.other_ms");
  const Clock::time_point start = Clock::now();
  LeafTimes leaves;
  // Every exit records sdp.solve.ms and its five-way split exactly once:
  // the four leaves plus the unattributed remainder sum to the total.
  const auto record_times = [&] {
    const Clock::duration total = Clock::now() - start;
    wall.record(to_ms(total));
    schur_ms.record(to_ms(leaves.schur));
    factor_ms.record(to_ms(leaves.factor));
    direction_ms.record(to_ms(leaves.direction));
    step_ms.record(to_ms(leaves.step));
    other_ms.record(
        to_ms(total - leaves.schur - leaves.factor - leaves.direction - leaves.step));
  };
  calls.add();
  if (Status vs = p.validate(); !vs.is_ok()) {
    LOG_WARN("sdp: refusing malformed problem: %s", vs.to_string().c_str());
    failures.add();
    SdpResult res;
    res.status = SdpStatus::kBadProblem;
    record_times();
    return res;
  }
  SdpResult res = solve_impl(p, opt, &leaves);
  iterations.add(res.iterations);
  // Failure accounting: kNumerical/kDeadline/kBadProblem produced no usable
  // answer and count as failures. kStalled deliberately does NOT — a stall
  // still returns the best iterate and downstream picks routinely accept
  // it; it is tracked separately so dashboards can watch stall rates
  // without polluting the failure signal.
  if (res.status == SdpStatus::kNumerical || res.status == SdpStatus::kDeadline) failures.add();
  if (res.status == SdpStatus::kStalled) stalls.add();
  record_times();
  return res;
}

}  // namespace cpla::sdp
