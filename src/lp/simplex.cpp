#include "src/lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "src/la/lu.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"

namespace cpla::lp {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
  }
  return "?";
}

int LpProblem::add_var(double lo, double up, double cost) {
  CPLA_ASSERT(lo <= up);
  lo_.push_back(lo);
  up_.push_back(up);
  cost_.push_back(cost);
  return static_cast<int>(cost_.size()) - 1;
}

void LpProblem::add_row(Sense sense, double rhs, std::vector<std::pair<int, double>> coeffs) {
  for (const auto& [var, coef] : coeffs) {
    CPLA_ASSERT(var >= 0 && var < num_vars());
    (void)coef;
  }
  rows_.push_back(Row{sense, rhs, std::move(coeffs)});
}

void LpProblem::set_cost(int var, double cost) { cost_[var] = cost; }

void LpProblem::set_bounds(int var, double lo, double up) {
  CPLA_ASSERT(lo <= up);
  lo_[var] = lo;
  up_[var] = up;
}

namespace {

constexpr double kTol = 1e-9;  // feasibility / optimality tolerance

// Internal tableau over structural + slack + artificial columns.
class Simplex {
 public:
  Simplex(const LpProblem& p, const LpOptions& opt) : p_(p), opt_(opt) {
    m_ = p.num_rows();
    nstruct_ = p.num_vars();
    ncols_ = nstruct_ + 2 * m_;  // slacks then artificials
    cols_ = la::Matrix(static_cast<std::size_t>(m_), static_cast<std::size_t>(ncols_));
    lo_.assign(ncols_, 0.0);
    up_.assign(ncols_, 0.0);
    cost_.assign(ncols_, 0.0);
    b_.assign(static_cast<std::size_t>(m_), 0.0);

    for (int j = 0; j < nstruct_; ++j) {
      lo_[j] = p.lower(j);
      up_[j] = p.upper(j);
      cost_[j] = p.cost(j);
    }
    for (int i = 0; i < m_; ++i) {
      const auto& row = p.row(i);
      b_[i] = row.rhs;
      for (const auto& [var, coef] : row.coeffs) cols_(i, var) += coef;
      const int slack = nstruct_ + i;
      cols_(i, slack) = 1.0;
      switch (row.sense) {
        case Sense::kLe:
          lo_[slack] = 0.0;
          up_[slack] = kInf;
          break;
        case Sense::kGe:
          lo_[slack] = -kInf;
          up_[slack] = 0.0;
          break;
        case Sense::kEq:
          lo_[slack] = 0.0;
          up_[slack] = 0.0;
          break;
      }
    }
  }

  LpResult run() {
    init_start_point();

    // Phase 1: drive artificial variables to zero.
    std::vector<double> phase1(ncols_, 0.0);
    for (int j = nstruct_ + m_; j < ncols_; ++j) phase1[j] = 1.0;
    LpStatus status = iterate(phase1);
    if (status != LpStatus::kOptimal) return finish(status);
    if (objective(phase1) > 1e-6) return finish(LpStatus::kInfeasible);

    // Freeze artificials at zero and optimize the true objective.
    for (int j = nstruct_ + m_; j < ncols_; ++j) {
      lo_[j] = 0.0;
      up_[j] = 0.0;
      if (state_[j] != kBasic) {
        state_[j] = kAtLower;
        val_[j] = 0.0;
      }
    }
    status = iterate(cost_);
    return finish(status);
  }

 private:
  static constexpr int kBasic = -1;
  static constexpr int kAtLower = 0;
  static constexpr int kAtUpper = 1;

  void init_start_point() {
    state_.assign(ncols_, kAtLower);
    val_.assign(ncols_, 0.0);
    basis_.assign(static_cast<std::size_t>(m_), 0);

    for (int j = 0; j < nstruct_ + m_; ++j) {
      if (std::isfinite(lo_[j])) {
        state_[j] = kAtLower;
        val_[j] = lo_[j];
      } else if (std::isfinite(up_[j])) {
        state_[j] = kAtUpper;
        val_[j] = up_[j];
      } else {
        state_[j] = kAtLower;  // free variable parked at 0
        val_[j] = 0.0;
      }
    }

    // Residual determines the artificial column signs so their start values
    // are nonnegative.
    la::Vector r = b_;
    for (int j = 0; j < nstruct_ + m_; ++j) {
      if (val_[j] == 0.0) continue;
      for (int i = 0; i < m_; ++i) r[i] -= cols_(i, j) * val_[j];
    }
    for (int i = 0; i < m_; ++i) {
      const int art = nstruct_ + m_ + i;
      cols_(i, art) = (r[i] >= 0.0) ? 1.0 : -1.0;
      lo_[art] = 0.0;
      up_[art] = kInf;
      basis_[i] = art;
      state_[art] = kBasic;
      val_[art] = std::fabs(r[i]);
    }
  }

  double objective(const std::vector<double>& c) const {
    double sum = 0.0;
    for (int j = 0; j < ncols_; ++j) sum += c[j] * val_[j];
    return sum;
  }

  /// Recomputes basic variable values from the nonbasic point (exact, no
  /// incremental drift). Requires a factorized basis.
  bool recompute_basics(const la::Lu& lu) {
    la::Vector rhs = b_;
    for (int j = 0; j < ncols_; ++j) {
      if (state_[j] == kBasic || val_[j] == 0.0) continue;
      for (int i = 0; i < m_; ++i) rhs[i] -= cols_(i, j) * val_[j];
    }
    la::Vector xb = lu.solve(rhs);
    for (int i = 0; i < m_; ++i) val_[basis_[i]] = xb[i];
    return true;
  }

  std::optional<la::Lu> factor_basis() const {
    la::Matrix bmat(static_cast<std::size_t>(m_), static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      for (int k = 0; k < m_; ++k) bmat(i, k) = cols_(i, basis_[k]);
    }
    return la::Lu::factor(bmat);
  }

  LpStatus iterate(const std::vector<double>& c) {
    int stall = 0;
    double last_obj = kInf;

    for (; iters_ < opt_.max_iterations; ++iters_) {
      auto lu = factor_basis();
      CPLA_ASSERT_MSG(lu.has_value(), "singular simplex basis");
      recompute_basics(*lu);

      const double obj = objective(c);
      if (obj < last_obj - 1e-12) {
        last_obj = obj;
        stall = 0;
      } else {
        ++stall;
      }
      const bool bland = stall > 2 * ncols_ + 50;

      // Prices and reduced costs.
      la::Vector cb(static_cast<std::size_t>(m_));
      for (int i = 0; i < m_; ++i) cb[i] = c[basis_[i]];
      duals_ = lu->solve_transposed(cb);

      int enter = -1;
      int dir = 0;
      double best = kTol;
      for (int j = 0; j < ncols_; ++j) {
        if (state_[j] == kBasic) continue;
        if (lo_[j] == up_[j]) continue;  // fixed
        double d = c[j];
        for (int i = 0; i < m_; ++i) d -= duals_[i] * cols_(i, j);
        const bool can_up = val_[j] < up_[j] - 1e-14 || up_[j] == kInf;
        const bool can_dn = val_[j] > lo_[j] + 1e-14 || lo_[j] == -kInf;
        if (d < -best && can_up) {
          enter = j;
          dir = +1;
          if (bland) break;
          best = -d;
        } else if (d > best && can_dn) {
          enter = j;
          dir = -1;
          if (bland) break;
          best = d;
        }
      }
      if (enter < 0) return LpStatus::kOptimal;

      // Direction of basic values: xB -= t * dir * w, w = B^{-1} A_enter.
      la::Vector acol(static_cast<std::size_t>(m_));
      for (int i = 0; i < m_; ++i) acol[i] = cols_(i, enter);
      la::Vector w = lu->solve(acol);

      // Ratio test.
      double tmax = (dir > 0) ? up_[enter] - val_[enter] : val_[enter] - lo_[enter];
      int leave = -1;     // index into basis_, or -1 for a bound flip
      int leave_to = 0;   // bound the leaving variable lands on
      double pivot_mag = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double coef = dir * w[i];
        const int bj = basis_[i];
        if (coef > kTol) {
          if (lo_[bj] == -kInf) continue;
          const double t = (val_[bj] - lo_[bj]) / coef;
          if (t < tmax - 1e-12 || (t < tmax + 1e-12 && std::fabs(w[i]) > pivot_mag)) {
            tmax = std::max(t, 0.0);
            leave = i;
            leave_to = kAtLower;
            pivot_mag = std::fabs(w[i]);
          }
        } else if (coef < -kTol) {
          if (up_[bj] == kInf) continue;
          const double t = (up_[bj] - val_[bj]) / (-coef);
          if (t < tmax - 1e-12 || (t < tmax + 1e-12 && std::fabs(w[i]) > pivot_mag)) {
            tmax = std::max(t, 0.0);
            leave = i;
            leave_to = kAtUpper;
            pivot_mag = std::fabs(w[i]);
          }
        }
      }
      if (tmax == kInf) return LpStatus::kUnbounded;

      // Apply the step.
      val_[enter] += dir * tmax;
      for (int i = 0; i < m_; ++i) val_[basis_[i]] -= dir * tmax * w[i];

      if (leave < 0) {
        // Bound flip: entering variable runs to its opposite bound.
        state_[enter] = (dir > 0) ? kAtUpper : kAtLower;
        val_[enter] = (dir > 0) ? up_[enter] : lo_[enter];
      } else {
        const int out = basis_[leave];
        state_[out] = leave_to;
        val_[out] = (leave_to == kAtLower) ? lo_[out] : up_[out];
        basis_[leave] = enter;
        state_[enter] = kBasic;
      }
    }
    return LpStatus::kIterLimit;
  }

  LpResult finish(LpStatus status) {
    LpResult out;
    out.status = status;
    out.iterations = iters_;
    out.x.assign(static_cast<std::size_t>(nstruct_), 0.0);
    for (int j = 0; j < nstruct_; ++j) out.x[j] = val_[j];
    out.objective = 0.0;
    for (int j = 0; j < nstruct_; ++j) out.objective += cost_[j] * val_[j];
    out.duals = duals_;
    return out;
  }

  const LpProblem& p_;
  const LpOptions& opt_;
  int m_ = 0, nstruct_ = 0, ncols_ = 0;
  la::Matrix cols_;
  std::vector<double> lo_, up_, cost_;
  la::Vector b_;
  std::vector<int> state_;
  std::vector<double> val_;
  std::vector<int> basis_;
  la::Vector duals_;
  int iters_ = 0;
};

/// Mirrors every solve into the global metrics registry (pivot counts are
/// the simplex cost driver CI tracks across PRs).
LpResult record_lp(LpResult out) {
  static obs::Counter& solves = obs::metrics().counter("lp.simplex.solves");
  static obs::Counter& pivots = obs::metrics().counter("lp.simplex.pivots");
  solves.add();
  pivots.add(out.iterations);
  return out;
}

}  // namespace

LpResult solve(const LpProblem& problem, const LpOptions& options) {
  if (problem.num_rows() == 0) {
    // Pure bound problem: each variable sits at whichever bound its cost
    // prefers; unbounded if a preferred bound is infinite.
    LpResult out;
    out.status = LpStatus::kOptimal;
    out.x.assign(static_cast<std::size_t>(problem.num_vars()), 0.0);
    for (int j = 0; j < problem.num_vars(); ++j) {
      const double c = problem.cost(j);
      double v;
      if (c > 0) {
        v = problem.lower(j);
      } else if (c < 0) {
        v = problem.upper(j);
      } else {
        v = std::isfinite(problem.lower(j)) ? problem.lower(j)
            : (std::isfinite(problem.upper(j)) ? problem.upper(j) : 0.0);
      }
      if (!std::isfinite(v)) {
        out.status = LpStatus::kUnbounded;
        v = 0.0;
      }
      out.x[j] = v;
      out.objective += c * v;
    }
    return record_lp(std::move(out));
  }
  Simplex solver(problem, options);
  return record_lp(solver.run());
}

}  // namespace cpla::lp
