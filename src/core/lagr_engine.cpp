#include "src/core/lagr_engine.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"

namespace cpla::core {

namespace {

constexpr int kIterations = 40;  // sub-gradient sweeps
constexpr double kStep = 0.5;    // initial multiplier step, x the per-var cost scale
constexpr double kDecay = 0.15;  // diminishing step: kStep / (1 + kDecay * k)

}  // namespace

EngineResult solve_partition_lagr(const PartitionProblem& p,
                                  const assign::AssignState& state) {
  static obs::Counter& calls = obs::metrics().counter("lagr.solve.calls");
  static obs::Counter& improved = obs::metrics().counter("lagr.solve.improved");
  (void)state;
  calls.add();

  EngineResult result;
  result.pick = incumbent_pick(p);
  if (p.vars.empty()) return result;
  const double incumbent_obj = p.evaluate(result.pick);
  result.objective = incumbent_obj;

  if (CPLA_FAULT_POINT("lagr.solve")) {
    result.solver_ok = false;
    result.code = StatusCode::kNumericalFailure;
    return result;
  }

  const std::size_t nvars = p.vars.size();
  const std::size_t nrows = p.cap_rows.size();

  // Row membership per (var, option): rows a var loads iff it picks the
  // row's layer. Built once; the pricing sweeps index it per candidate.
  std::vector<std::vector<std::vector<int>>> rows_of(nvars);
  for (std::size_t i = 0; i < nvars; ++i) {
    rows_of[i].resize(p.vars[i].layers.size());
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    const CapRow& row = p.cap_rows[r];
    for (int i : row.members) {
      const VarGroup& var = p.vars[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < var.layers.size(); ++k) {
        if (var.layers[k] == row.layer) {
          rows_of[static_cast<std::size_t>(i)][k].push_back(static_cast<int>(r));
        }
      }
    }
  }
  // Pairs touching each var, for the linearized quadratic terms.
  std::vector<std::vector<int>> pairs_of(nvars);
  for (std::size_t q = 0; q < p.pairs.size(); ++q) {
    pairs_of[static_cast<std::size_t>(p.pairs[q].child)].push_back(static_cast<int>(q));
    pairs_of[static_cast<std::size_t>(p.pairs[q].parent)].push_back(static_cast<int>(q));
  }

  // Step scale: mean linear-cost spread per var, so the multiplier prices
  // compete with the timing costs at any instance magnitude.
  double scale = 0.0;
  for (const VarGroup& var : p.vars) {
    const auto [lo, hi] = std::minmax_element(var.cost.begin(), var.cost.end());
    scale += (var.cost.empty()) ? 0.0 : (*hi - *lo);
  }
  scale /= static_cast<double>(nvars);
  if (!(scale > 0.0)) scale = 1.0;

  std::vector<double> nu(nrows, 0.0);  // row multipliers
  std::vector<int> pick = result.pick;
  std::vector<int> best = result.pick;
  double best_obj = incumbent_obj;
  bool best_is_incumbent = true;

  for (int iter = 0; iter < kIterations; ++iter) {
    result.iterations = iter + 1;

    // Coordinate sweep in var order on the dualized objective; the pair
    // terms are linearized at the neighbors' current picks.
    for (std::size_t i = 0; i < nvars; ++i) {
      const VarGroup& var = p.vars[i];
      double best_cost = 1e300;
      int best_k = pick[i];
      for (std::size_t k = 0; k < var.layers.size(); ++k) {
        double cost = var.cost[k];
        for (int r : rows_of[i][k]) cost += nu[static_cast<std::size_t>(r)];
        const int layer = var.layers[k];
        for (int q : pairs_of[i]) {
          const VarPair& pair = p.pairs[static_cast<std::size_t>(q)];
          if (pair.child == static_cast<int>(i)) {
            const int lp = p.vars[static_cast<std::size_t>(pair.parent)]
                               .layers[static_cast<std::size_t>(
                                   pick[static_cast<std::size_t>(pair.parent)])];
            cost += p.pair_cost(pair, lp, layer);
          } else {
            const int lc = p.vars[static_cast<std::size_t>(pair.child)]
                               .layers[static_cast<std::size_t>(
                                   pick[static_cast<std::size_t>(pair.child)])];
            cost += p.pair_cost(pair, layer, lc);
          }
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_k = static_cast<int>(k);
        }
      }
      pick[i] = best_k;
    }

    // Score the sweep's integral pick on the true objective; keep the best
    // capacity-feasible one (strict improvement over the incumbent only —
    // ties keep the incumbent, minimizing churn).
    const double obj = p.evaluate(pick);
    if (obj < best_obj && rows_feasible(p, pick)) {
      best_obj = obj;
      best = pick;
      best_is_incumbent = false;
    }

    // Projected sub-gradient step on the row violations, diminishing.
    const double step = kStep * scale / (1.0 + kDecay * static_cast<double>(iter));
    bool any_violation = false;
    for (std::size_t r = 0; r < nrows; ++r) {
      const CapRow& row = p.cap_rows[r];
      int used = 0;
      for (int i : row.members) {
        const VarGroup& var = p.vars[static_cast<std::size_t>(i)];
        if (var.layers[static_cast<std::size_t>(pick[static_cast<std::size_t>(i)])] ==
            row.layer) {
          ++used;
        }
      }
      const int over = used - row.cap_remaining;
      if (over > 0) any_violation = true;
      nu[r] = std::max(0.0, nu[r] + step * static_cast<double>(over));
    }
    // Feasible and stationary: another sweep with unchanged prices would
    // reproduce the same pick.
    if (!any_violation && pick == best) break;
  }

  if (!best_is_incumbent && p.options.polish) {
    polish_pick(p, &best);
    const double polished = p.evaluate(best);
    if (polished <= best_obj) best_obj = polished;
  }
  result.pick = std::move(best);
  result.objective = best_obj;
  result.relaxation_obj = best_obj;
  if (!best_is_incumbent) improved.add();
  return result;
}

}  // namespace cpla::core
