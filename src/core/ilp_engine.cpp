#include "src/core/ilp_engine.hpp"

#include <algorithm>
#include <map>

#include "src/util/check.hpp"

namespace cpla::core {

EngineResult solve_partition_ilp(const PartitionProblem& p, const assign::AssignState& state,
                                 const ilp::MipOptions& options) {
  EngineResult result;
  if (p.vars.empty()) return result;

  ilp::MipModel m;

  // x variables.
  std::vector<std::vector<int>> x(p.vars.size());
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    x[i].resize(p.vars[i].layers.size());
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      x[i][k] = m.add_binary(p.vars[i].cost[k]);
    }
    // (4b): exactly one layer.
    std::vector<std::pair<int, double>> row;
    for (int var : x[i]) row.push_back({var, 1.0});
    m.add_row(lp::Sense::kEq, 1.0, row);
  }

  // (4c): hard edge capacities.
  for (const CapRow& cap : p.cap_rows) {
    std::vector<std::pair<int, double>> row;
    for (int member : cap.members) {
      const auto& layers = p.vars[member].layers;
      for (std::size_t k = 0; k < layers.size(); ++k) {
        if (layers[k] == cap.layer) row.push_back({x[member][k], 1.0});
      }
    }
    m.add_row(lp::Sense::kLe, static_cast<double>(cap.cap_remaining), row);
  }

  // y variables with (4e)-(4g), for combos that produce a via.
  struct YVar {
    int var;     // MIP variable id
    int pair;    // pair index
    int kp, kc;  // option indices
  };
  std::vector<YVar> yvars;
  for (std::size_t pi = 0; pi < p.pairs.size(); ++pi) {
    const VarPair& pair = p.pairs[pi];
    const auto& lp_ = p.vars[pair.parent].layers;
    const auto& lc_ = p.vars[pair.child].layers;
    for (std::size_t kp = 0; kp < lp_.size(); ++kp) {
      for (std::size_t kc = 0; kc < lc_.size(); ++kc) {
        if (lp_[kp] == lc_[kc]) continue;
        const double tv = p.pair_cost(pair, lp_[kp], lc_[kc]);
        const int y = m.add_binary(tv);
        const int xp = x[pair.parent][kp];
        const int xc = x[pair.child][kc];
        m.add_row(lp::Sense::kLe, 0.0, {{y, 1.0}, {xp, -1.0}});               // (4e)
        m.add_row(lp::Sense::kLe, 0.0, {{y, 1.0}, {xc, -1.0}});               // (4f)
        m.add_row(lp::Sense::kGe, -1.0, {{y, 1.0}, {xp, -1.0}, {xc, -1.0}});  // (4g)
        yvars.push_back(YVar{y, static_cast<int>(pi), static_cast<int>(kp),
                             static_cast<int>(kc)});
      }
    }
  }

  // (4d) via-capacity rows at pair junction cells, relaxed by Vo.
  constexpr double kVoWeight = 2000.0;  // ILP relaxation weight for Vo (Sec 3.1)
  const int vo = m.add_var(0.0, lp::kInf, kVoWeight);
  const auto& g = state.design().grid;
  const int nv = state.nv();
  // Group pairs by junction cell. Ordered map: the (4d) row order below is
  // solver-visible (simplex pivot selection), so iterate in cell-id order.
  std::map<int, std::vector<int>> cell_pairs;
  for (std::size_t pi = 0; pi < p.pairs.size(); ++pi) {
    cell_pairs[g.cell_id(p.pairs[pi].junction.x, p.pairs[pi].junction.y)].push_back(
        static_cast<int>(pi));
  }
  for (const auto& [cell, pair_ids] : cell_pairs) {
    for (int l = 1; l < g.num_layers() - 1; ++l) {
      std::vector<std::pair<int, double>> row;
      // y terms: via stacks crossing layer l at this cell.
      for (const YVar& yv : yvars) {
        if (std::find(pair_ids.begin(), pair_ids.end(), yv.pair) == pair_ids.end()) continue;
        const VarPair& pair = p.pairs[yv.pair];
        const int lp_ = p.vars[pair.parent].layers[yv.kp];
        const int lc_ = p.vars[pair.child].layers[yv.kc];
        if (l > std::min(lp_, lc_) && l < std::max(lp_, lc_)) row.push_back({yv.var, 1.0});
      }
      if (row.empty()) continue;

      // nv * x terms: in-partition segments crossing this cell if put on l.
      int self_load = 0;  // current load contributed by in-partition vars
      for (std::size_t i = 0; i < p.vars.size(); ++i) {
        bool crosses = false;
        state.for_each_cell(p.vars[i].net, p.vars[i].seg, [&](int c2) {
          if (c2 == cell) crosses = true;
        });
        if (!crosses) continue;
        const auto& layers = p.vars[i].layers;
        for (std::size_t k = 0; k < layers.size(); ++k) {
          if (layers[k] == l) row.push_back({x[i][k], static_cast<double>(nv)});
        }
        if (p.vars[i].current_layer == l) self_load += nv;
      }
      // Current via stacks of the pairs at this junction also sit in
      // via_usage; lift them out of the fixed load.
      for (int pi : pair_ids) {
        const VarPair& pair = p.pairs[pi];
        const int lp_ = p.vars[pair.parent].current_layer;
        const int lc_ = p.vars[pair.child].current_layer;
        if (l > std::min(lp_, lc_) && l < std::max(lp_, lc_)) self_load += 1;
      }
      const int fixed_load = state.via_load(l, cell) - self_load;
      const double rhs = static_cast<double>(state.via_cap(l, cell) - fixed_load);
      row.push_back({vo, -1.0});
      m.add_row(lp::Sense::kLe, rhs, row);
    }
  }

  const ilp::MipResult mr = solve_mip(m, options);
  result.solver_ok =
      (mr.status == ilp::MipStatus::kOptimal || mr.status == ilp::MipStatus::kFeasible);
  switch (mr.status) {
    case ilp::MipStatus::kInfeasible: result.code = StatusCode::kInfeasible; break;
    case ilp::MipStatus::kLimit: result.code = StatusCode::kIterationLimit; break;
    default: break;
  }
  result.iterations = static_cast<int>(mr.nodes);
  result.relaxation_obj = mr.best_bound;

  if (result.solver_ok) {
    result.pick.assign(p.vars.size(), 0);
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      for (std::size_t k = 0; k < x[i].size(); ++k) {
        if (mr.x[x[i][k]] > 0.5) result.pick[i] = static_cast<int>(k);
      }
    }
  } else {
    result.pick = incumbent_pick(p);  // keep the current assignment on failure
  }
  if (p.options.polish && rows_feasible(p, result.pick)) polish_pick(p, &result.pick);
  result.objective = p.evaluate(result.pick);

  // Incremental guard (mirrors the SDP engine): never regress the model
  // objective — a truncated search or soft via rows could otherwise return
  // a pick worse than the incumbent.
  std::vector<int> incumbent = incumbent_pick(p);
  if (p.options.polish && rows_feasible(p, incumbent)) polish_pick(p, &incumbent);
  const double incumbent_obj = p.evaluate(incumbent);
  if (p.options.incumbent_guard && result.objective > incumbent_obj) {
    result.pick = std::move(incumbent);
    result.objective = incumbent_obj;
  }
  return result;
}

}  // namespace cpla::core
