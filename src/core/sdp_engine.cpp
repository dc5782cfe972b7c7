#include "src/core/sdp_engine.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/util/check.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {

namespace {

/// Scalar-variable offsets: option k of var i lives at dense index
/// 1 + offset[i] + k (index 0 is the lifted "1" corner).
std::vector<int> var_offsets(const PartitionProblem& p) {
  std::vector<int> off(p.vars.size() + 1, 0);
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    off[i + 1] = off[i] + static_cast<int>(p.vars[i].layers.size());
  }
  return off;
}

}  // namespace

std::vector<int> post_map(const PartitionProblem& p, const assign::AssignState& state,
                          const std::vector<std::vector<double>>& x) {
  const int num_layers = state.design().grid.num_layers();
  std::vector<int> pick(p.vars.size(), -1);

  // Remaining capacity per (layer, edge) over the edges the partition
  // touches, with all in-partition segments lifted out.
  std::unordered_map<long long, int> remaining;
  auto ekey = [](int l, int e) { return (static_cast<long long>(l) << 32) | e; };
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    const VarGroup& var = p.vars[i];
    for (int l : var.layers) {
      state.for_each_edge(var.net, var.seg, [&](int e) {
        const long long k = ekey(l, e);
        if (!remaining.count(k)) {
          int others = state.wire_usage(l, e);
          // Subtract in-partition segments currently on this (layer, edge).
          for (std::size_t j = 0; j < p.vars.size(); ++j) {
            if (p.vars[j].current_layer != l) continue;
            state.for_each_edge(p.vars[j].net, p.vars[j].seg, [&](int e2) {
              if (e2 == e) others -= 1;
            });
          }
          remaining[k] = state.wire_cap(l, e) - others;
        }
      });
    }
  }

  auto fits = [&](std::size_t i, int l) {
    bool ok = true;
    state.for_each_edge(p.vars[i].net, p.vars[i].seg, [&](int e) {
      if (remaining[ekey(l, e)] < 1) ok = false;
    });
    return ok;
  };
  auto consume = [&](std::size_t i, int l) {
    state.for_each_edge(p.vars[i].net, p.vars[i].seg,
                        [&](int e) { remaining[ekey(l, e)] -= 1; });
  };

  // Alg. 1: layers from the top down; per layer, grab the highest-x
  // unassigned segments while capacity lasts. A segment competes at layer l
  // only when l is its best *remaining* option (higher layers have already
  // been swept), so capacity-race losers cascade to their next-best layer.
  for (int l = num_layers - 1; l >= 0; --l) {
    std::vector<std::pair<double, std::size_t>> cands;  // (x value, var)
    std::vector<int> opt_of(p.vars.size(), -1);
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      if (pick[i] >= 0) continue;  // already on a higher layer
      const auto& layers = p.vars[i].layers;
      int best_remaining = -1;
      for (std::size_t k = 0; k < layers.size(); ++k) {
        if (layers[k] > l) continue;  // already swept and lost there
        // '>=' breaks ties toward the higher layer (options are stored in
        // ascending layer order), matching the paper's high-layer preference.
        if (best_remaining < 0 || x[i][k] >= x[i][best_remaining] - 1e-12) {
          best_remaining = static_cast<int>(k);
        }
      }
      if (best_remaining >= 0 && layers[best_remaining] == l) {
        cands.push_back({x[i][best_remaining], i});
        opt_of[i] = best_remaining;
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [xv, i] : cands) {
      (void)xv;
      if (!fits(i, l)) continue;
      pick[i] = opt_of[i];
      consume(i, l);
    }
  }

  // Fallback for anything unplaced: cheapest overflow increase, then
  // highest x.
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    if (pick[i] >= 0) continue;
    int best_k = 0;
    double best_score = -1e300;
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      const int l = p.vars[i].layers[k];
      int overflow = 0;
      state.for_each_edge(p.vars[i].net, p.vars[i].seg, [&](int e) {
        if (remaining[ekey(l, e)] < 1) overflow += 1;
      });
      const double score = -1000.0 * overflow + x[i][k];
      if (score > best_score) {
        best_score = score;
        best_k = static_cast<int>(k);
      }
    }
    pick[i] = best_k;
    consume(i, p.vars[i].layers[best_k]);
  }
  return pick;
}

EngineResult solve_partition_sdp(const PartitionProblem& p, const assign::AssignState& state,
                                 const sdp::SdpOptions& options) {
  EngineResult result;
  if (p.vars.empty()) return result;

  const std::vector<int> off = var_offsets(p);
  const int n_scalar = off.back();
  const int dense_dim = 1 + n_scalar;

  // All costed (parent-option, child-option) via combos carry objective
  // entries; a capped subset additionally gets the product-bound rows
  // (nonnegativity + RLT), since the Schur complement is m x m and grows
  // with every auxiliary row. For large partitions only the most expensive
  // combos keep the strengthening; the tail relies on the PSD minor bounds.
  std::vector<std::pair<int, int>> pair_combos;  // (pair index, combo id: kp*nc+kc)
  std::vector<double> combo_cost;
  for (std::size_t pi = 0; pi < p.pairs.size(); ++pi) {
    const VarPair& pair = p.pairs[pi];
    const auto& lp = p.vars[pair.parent].layers;
    const auto& lc = p.vars[pair.child].layers;
    for (std::size_t kp = 0; kp < lp.size(); ++kp) {
      for (std::size_t kc = 0; kc < lc.size(); ++kc) {
        if (lp[kp] != lc[kc]) {
          pair_combos.push_back({static_cast<int>(pi),
                                 static_cast<int>(kp * lc.size() + kc)});
          combo_cost.push_back(p.pair_cost(pair, lp[kp], lc[kc]));
        }
      }
    }
  }
  const std::size_t kMaxAuxCombos = p.options.rlt_rows ? 160 : 0;
  std::vector<std::pair<int, int>> aux_combos = pair_combos;
  if (aux_combos.size() > kMaxAuxCombos) {
    std::vector<std::size_t> order(pair_combos.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::nth_element(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(kMaxAuxCombos), order.end(),
        [&](std::size_t a, std::size_t b) { return combo_cost[a] > combo_cost[b]; });
    aux_combos.clear();
    for (std::size_t i = 0; i < kMaxAuxCombos; ++i) aux_combos.push_back(pair_combos[order[i]]);
  }
  const int n_slack = static_cast<int>(p.cap_rows.size()) +
                      2 * static_cast<int>(aux_combos.size());

  sdp::BlockStructure structure;
  structure.push_back({sdp::BlockSpec::Kind::kDense, dense_dim});
  if (n_slack > 0) structure.push_back({sdp::BlockSpec::Kind::kDiag, n_slack});
  sdp::SdpProblem sp(structure);

  auto xi = [&](int var, int opt) { return 1 + off[var] + opt; };

  // Objective: segment costs on the diagonal, via costs on products.
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      sp.add_objective_entry(0, xi(i, k), xi(i, k), p.vars[i].cost[k]);
    }
  }
  for (const auto& [pi, combo] : pair_combos) {
    const VarPair& pair = p.pairs[pi];
    const auto& lc = p.vars[pair.child].layers;
    const int kp = combo / static_cast<int>(lc.size());
    const int kc = combo % static_cast<int>(lc.size());
    const double tv = p.pair_cost(pair, p.vars[pair.parent].layers[kp], lc[kc]);
    const int a = xi(pair.parent, kp);
    const int b = xi(pair.child, kc);
    sp.add_objective_entry(0, std::min(a, b), std::max(a, b), tv / 2.0);
  }

  // Y00 = 1.
  {
    const int c = sp.add_constraint(1.0);
    sp.add_entry(c, 0, 0, 0, 1.0);
  }
  // Y_kk = Y_0k.
  for (int k = 1; k < dense_dim; ++k) {
    const int c = sp.add_constraint(0.0);
    sp.add_entry(c, 0, k, k, 1.0);
    sp.add_entry(c, 0, 0, k, -0.5);
  }
  // One layer per segment.
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    const int c = sp.add_constraint(1.0);
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      sp.add_entry(c, 0, 0, xi(i, k), 0.5);
    }
  }
  // Capacity rows with slack.
  int slack = 0;
  for (const CapRow& row : p.cap_rows) {
    const int c = sp.add_constraint(static_cast<double>(row.cap_remaining));
    for (int m : row.members) {
      // Which option of var m corresponds to row.layer?
      const auto& layers = p.vars[m].layers;
      for (std::size_t k = 0; k < layers.size(); ++k) {
        if (layers[k] == row.layer) sp.add_entry(c, 0, 0, xi(m, k), 0.5);
      }
    }
    sp.add_entry(c, 1, slack, slack, 1.0);
    ++slack;
  }
  // Product bounds per kept combo: Y_ab - s1 = 0 (s1 >= 0) and
  // Y_ab - x_a - x_b + 1 - s2 = 0 (s2 >= 0).
  for (const auto& [pi, combo] : aux_combos) {
    const VarPair& pair = p.pairs[pi];
    const auto& lc = p.vars[pair.child].layers;
    const int kp = combo / static_cast<int>(lc.size());
    const int kc = combo % static_cast<int>(lc.size());
    const int a = xi(pair.parent, kp);
    const int b = xi(pair.child, kc);
    {
      const int c = sp.add_constraint(0.0);
      sp.add_entry(c, 0, std::min(a, b), std::max(a, b), 0.5);
      sp.add_entry(c, 1, slack, slack, -1.0);
      ++slack;
    }
    {
      const int c = sp.add_constraint(-1.0);
      sp.add_entry(c, 0, std::min(a, b), std::max(a, b), 0.5);
      sp.add_entry(c, 0, 0, a, -0.5);
      sp.add_entry(c, 0, 0, b, -0.5);
      sp.add_entry(c, 1, slack, slack, -1.0);
      ++slack;
    }
  }

  const sdp::SdpResult sr = sdp::solve(sp, options);
  result.iterations = sr.iterations;
  result.relaxation_obj = sr.primal_obj;
  result.solver_ok =
      (sr.status == sdp::SdpStatus::kOptimal || sr.status == sdp::SdpStatus::kStalled ||
       sr.status == sdp::SdpStatus::kIterLimit);
  switch (sr.status) {
    case sdp::SdpStatus::kNumerical: result.code = StatusCode::kNumericalFailure; break;
    case sdp::SdpStatus::kDeadline: result.code = StatusCode::kDeadlineExceeded; break;
    case sdp::SdpStatus::kIterLimit: result.code = StatusCode::kIterationLimit; break;
    case sdp::SdpStatus::kBadProblem: result.code = StatusCode::kBadInput; break;
    default: break;
  }

  // Extract x from the first row/diagonal of the dense block.
  std::vector<std::vector<double>> x(p.vars.size());
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    x[i].resize(p.vars[i].layers.size());
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      if (result.solver_ok) {
        x[i][k] = 0.5 * (sr.x.dense(0)(0, xi(i, k)) + sr.x.dense(0)(xi(i, k), xi(i, k)));
      }
      // Numerical failure (or a non-finite entry that slipped through a
      // nominally-ok solve): fall back to the current assignment.
      if (!result.solver_ok || !std::isfinite(x[i][k])) {
        x[i][k] = (p.vars[i].layers[k] == p.vars[i].current_layer) ? 1.0 : 0.0;
      }
    }
  }

  result.pick = post_map(p, state, x);
  if (p.options.polish && rows_feasible(p, result.pick)) polish_pick(p, &result.pick);
  result.objective = p.evaluate(result.pick);

  // Incremental guard: the rounded solution must not regress the model
  // objective relative to the incumbent assignment (rounding a weak
  // relaxation can otherwise scramble an already-good region). The
  // incumbent is also polished, so the engine is at least as strong as
  // coordinate descent from the current assignment.
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
