#include "src/ilp/branch_bound.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"
#include "src/util/timer.hpp"

namespace cpla::ilp {

const char* to_string(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kLimit: return "limit";
  }
  return "?";
}

int MipModel::add_var(double lo, double up, double cost) { return lp_.add_var(lo, up, cost); }

int MipModel::add_int_var(double lo, double up, double cost) {
  const int var = lp_.add_var(lo, up, cost);
  integer_vars_.push_back(var);
  return var;
}

namespace {

constexpr double kIntTol = 1e-6;  // |x - round(x)| below this counts as integral
constexpr double kGapAbs = 1e-9;  // prune nodes within this of the incumbent

class Searcher {
 public:
  Searcher(const MipModel& model, const MipOptions& opt)
      : opt_(opt), lp_(model.lp()), int_vars_(model.integer_vars()) {}

  MipResult run() {
    dive(0);
    MipResult out;
    out.nodes = nodes_;
    out.best_bound = root_bound_;
    if (has_incumbent_) {
      out.objective = best_obj_;
      out.x = best_x_;
      out.status = truncated_ ? MipStatus::kFeasible : MipStatus::kOptimal;
    } else {
      out.status = truncated_ ? MipStatus::kLimit : MipStatus::kInfeasible;
    }
    return out;
  }

 private:
  /// Returns the index (into int_vars_) of the most fractional variable, or
  /// -1 if the point is integral.
  int most_fractional(const la::Vector& x) const {
    int best = -1;
    double best_frac = kIntTol;
    for (std::size_t k = 0; k < int_vars_.size(); ++k) {
      const double v = x[int_vars_[k]];
      const double frac = std::fabs(v - std::round(v));
      // Distance from the nearest half-integer point, inverted: prefer the
      // variable closest to 0.5 fractionality.
      const double score = std::min(v - std::floor(v), std::ceil(v) - v);
      if (frac > kIntTol && score > best_frac) {
        best_frac = score;
        best = static_cast<int>(k);
      }
    }
    return best;
  }

  void dive(int depth) {
    if (truncated_) return;
    if (nodes_ >= opt_.max_nodes || timer_.seconds() > opt_.time_limit_s) {
      truncated_ = true;
      return;
    }
    ++nodes_;

    lp::LpResult rel = lp::solve(lp_);
    if (depth == 0) {
      root_bound_ = (rel.status == lp::LpStatus::kOptimal) ? rel.objective : lp::kInf;
    }
    if (rel.status == lp::LpStatus::kInfeasible) return;
    if (rel.status == lp::LpStatus::kIterLimit) {
      truncated_ = true;
      return;
    }
    if (rel.status == lp::LpStatus::kUnbounded) {
      // An unbounded relaxation at the root means the MIP is unbounded; we
      // treat it as a modelling error in this project (all CPLA models are
      // bounded).
      CPLA_ASSERT_MSG(depth > 0, "unbounded MIP relaxation at root");
      return;
    }
    if (has_incumbent_ && rel.objective >= best_obj_ - kGapAbs) return;  // bound prune

    const int k = most_fractional(rel.x);
    if (k < 0) {
      // Integer feasible: snap and accept.
      la::Vector snapped = rel.x;
      for (int var : int_vars_) snapped[var] = std::round(snapped[var]);
      best_obj_ = rel.objective;
      best_x_ = std::move(snapped);
      has_incumbent_ = true;
      return;
    }

    const int var = int_vars_[k];
    const double v = rel.x[var];
    const double lo = lp_.lower(var);
    const double up = lp_.upper(var);
    const double fl = std::floor(v);

    // Branch down then up, exploring the side nearer the fractional value
    // first (slightly better incumbents early).
    const bool down_first = (v - fl) < 0.5;
    for (int side = 0; side < 2; ++side) {
      const bool down = (side == 0) == down_first;
      if (down) {
        if (fl < lo - 0.5) continue;
        lp_.set_bounds(var, lo, fl);
      } else {
        if (fl + 1.0 > up + 0.5) continue;
        lp_.set_bounds(var, fl + 1.0, up);
      }
      dive(depth + 1);
      lp_.set_bounds(var, lo, up);
    }
  }

  const MipOptions& opt_;
  lp::LpProblem lp_;  // mutable copy; bounds tightened along the dive
  const std::vector<int>& int_vars_;
  WallTimer timer_;
  long nodes_ = 0;
  bool truncated_ = false;
  bool has_incumbent_ = false;
  double best_obj_ = lp::kInf;
  double root_bound_ = -lp::kInf;
  la::Vector best_x_;
};

}  // namespace

MipResult solve_mip(const MipModel& model, const MipOptions& options) {
  static obs::Counter& solves = obs::metrics().counter("ilp.bnb.solves");
  static obs::Counter& nodes = obs::metrics().counter("ilp.bnb.nodes");
  Searcher searcher(model, options);
  MipResult out = searcher.run();
  solves.add();
  nodes.add(out.nodes);
  return out;
}

}  // namespace cpla::ilp
