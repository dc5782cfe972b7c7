#include "src/core/model.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "src/util/check.hpp"

namespace cpla::core {

namespace {

constexpr double kViaPenaltyScale = 40.0;  // lambda scale for via-site congestion

/// Penalty for a via stack against fixed via-site congestion.
double stack_penalty(const assign::AssignState& state, int cell, int la, int lb) {
  double cost = 0.0;
  for (int l = std::min(la, lb) + 1; l < std::max(la, lb); ++l) {
    const double cap = std::max(1, state.via_cap(l, cell));
    cost += kViaPenaltyScale * static_cast<double>(state.via_load(l, cell)) / cap;
  }
  return cost;
}

}  // namespace

double PartitionProblem::pair_cost(const VarPair& pair, int lp, int lc) const {
  if (lp == lc) return 0.0;
  double cost = rc->via_stack_res(lp, lc) * pair.scale;
  for (int l = std::min(lp, lc) + 1; l < std::max(lp, lc); ++l) {
    cost += kViaPenaltyScale * pair.load_ratio[l];
  }
  return cost;
}

double PartitionProblem::evaluate(const std::vector<int>& pick) const {
  CPLA_ASSERT(pick.size() == vars.size());
  double total = 0.0;
  for (std::size_t i = 0; i < vars.size(); ++i) total += vars[i].cost[pick[i]];
  for (const VarPair& pair : pairs) {
    total += pair_cost(pair, vars[pair.parent].layers[pick[pair.parent]],
                       vars[pair.child].layers[pick[pair.child]]);
  }
  return total;
}

RoundTiming freeze_timing(const assign::AssignState& state, const timing::RcTable& rc,
                          const std::vector<int>& nets, const ModelOptions& options) {
  RoundTiming out;
  for (int net : nets) {
    out.emplace(net, FrozenNet{timing::compute_timing(state.tree(net), state.layers(net), rc)});
  }
  // Global criticality: the worst frozen net anchors the weighting
  // (Problem 1 minimizes the maximum path timing).
  double global_max = 0.0;
  for (int net : nets) global_max = std::max(global_max, out.at(net).timing.max_sink_delay);
  if (options.max_focus_gamma > 0.0 && global_max > 0.0) {
    for (int net : nets) {
      FrozenNet& frozen = out.at(net);
      frozen.focus = std::pow(frozen.timing.max_sink_delay / global_max, options.max_focus_gamma);
    }
  }
  return out;
}

PartitionProblem build_partition_problem(const assign::AssignState& state,
                                         const timing::RcTable& rc, const RoundTiming& timing,
                                         const PartitionRegion& region,
                                         const ModelOptions& options) {
  PartitionProblem p;
  p.rc = &rc;
  p.options = options;
  p.region_x0 = region.x0;
  p.region_y0 = region.y0;
  p.region_x1 = region.x1;
  p.region_y1 = region.y1;
  const auto& g = state.design().grid;

  // Pass 1: create variables and the (net, seg) -> var index map, a
  // sorted vector of (key, var) pairs: a partition holds a handful of
  // segments, and the build runs once per partition per round.
  std::vector<std::pair<long long, int>> var_index;
  var_index.reserve(region.segments.size());
  p.vars.reserve(region.segments.size());
  auto key = [](int net, int seg) { return (static_cast<long long>(net) << 24) | seg; };
  for (const SegRef& ref : region.segments) {
    const route::SegTree& tree = state.tree(ref.net);
    const FrozenNet& frozen = timing.at(ref.net);
    VarGroup var;
    var.net = ref.net;
    var.seg = ref.seg;
    var.current_layer = state.layers(ref.net)[ref.seg];
    // Smooth criticality weighting: segments feeding near-critical sinks
    // keep nearly full weight, so a branch one round away from becoming
    // the critical path is not traded off (branch_weight is the floor);
    // the whole net is further scaled by its global criticality.
    var.weight =
        std::max(options.branch_weight, frozen.timing.criticality[ref.seg] * frozen.focus);

    // Allowed layers: every direction-matching layer. Feasibility is the
    // job of the capacity rows (4c) and the post-mapping step; pruning
    // merely-full layers here would freeze segments below congested upper
    // layers that other released segments are about to vacate.
    const route::Segment& seg = tree.segs[ref.seg];
    var.layers = state.allowed_layers(seg.horizontal);
    CPLA_ASSERT(!var.layers.empty());
    var_index.emplace_back(key(ref.net, ref.seg), static_cast<int>(p.vars.size()));
    p.vars.push_back(std::move(var));
  }
  std::sort(var_index.begin(), var_index.end());
  // Var of (net, seg), or -1; a repeated segment maps to its last var.
  auto var_of = [&](int net, int seg) {
    const auto it = std::upper_bound(var_index.begin(), var_index.end(),
                                     std::make_pair(key(net, seg), INT_MAX));
    return it != var_index.begin() && (it - 1)->first == key(net, seg) ? (it - 1)->second : -1;
  };

  // Pass 2: linear costs and quadratic pairs. What a var's per-layer costs
  // share — its sink pins, its fixed neighbours and their weights — is
  // gathered once per var.
  struct FixedChild {
    int layer;
    int cell;
    double weight;
    double load;
  };
  std::vector<int> sink_pins;             // pin layers of the sinks on the var's segment
  std::vector<FixedChild> fixed_children;  // children outside the partition
  for (std::size_t vi = 0; vi < p.vars.size(); ++vi) {
    VarGroup& var = p.vars[vi];
    const route::SegTree& tree = state.tree(var.net);
    const FrozenNet& frozen = timing.at(var.net);
    const timing::NetTiming& t = frozen.timing;
    const route::Segment& seg = tree.segs[var.seg];
    const double len = static_cast<double>(seg.length());
    const double cd = t.downstream_cap[var.seg];
    const std::vector<int>& fixed_layers = state.layers(var.net);
    const int parent_var = seg.parent >= 0 ? var_of(var.net, seg.parent) : -1;

    sink_pins.clear();
    for (const route::SinkAttach& sink : tree.sinks) {
      if (sink.seg_id == var.seg) sink_pins.push_back(sink.pin_layer);
    }
    fixed_children.clear();
    for (int c : seg.children) {
      if (var_of(var.net, c) >= 0) continue;
      const route::Segment& cseg = tree.segs[c];
      fixed_children.push_back(
          FixedChild{fixed_layers[c], g.cell_id(cseg.a.x, cseg.a.y),
                     std::max(options.branch_weight, t.criticality[c] * frozen.focus),
                     std::min(cd, t.downstream_cap[c])});
    }

    var.cost.resize(var.layers.size());
    for (std::size_t k = 0; k < var.layers.size(); ++k) {
      const int l = var.layers[k];
      // Segment Elmore cost (Eqn 2), criticality-weighted.
      double cost = var.weight * rc.res(l) * len * (rc.cap(l) * len / 2.0 + cd);

      // Sink pin vias on this segment.
      for (int pin_layer : sink_pins) {
        cost += var.weight * rc.via_stack_res(l, pin_layer) * rc.sink_cap();
        cost += stack_penalty(state, g.cell_id(seg.b.x, seg.b.y), l, pin_layer);
      }

      if (seg.parent < 0) {
        // Source via drives the whole subtree.
        const double subtree = rc.cap(l) * len + cd;
        cost += var.weight * rc.via_stack_res(tree.root_pin_layer, l) * subtree;
        cost += stack_penalty(state, g.cell_id(seg.a.x, seg.a.y), l, tree.root_pin_layer);
      } else if (parent_var < 0) {
        // Parent is outside the partition: a fixed-layer via (Eqn 3).
        const int lp = fixed_layers[seg.parent];
        const double load = std::min(cd, t.downstream_cap[seg.parent]);
        cost += var.weight * rc.via_stack_res(lp, l) * load;
        cost += stack_penalty(state, g.cell_id(seg.a.x, seg.a.y), l, lp);
      }
      // Fixed children.
      for (const FixedChild& child : fixed_children) {
        cost += child.weight * rc.via_stack_res(l, child.layer) * child.load;
        cost += stack_penalty(state, child.cell, l, child.layer);
      }
      var.cost[k] = cost;
    }

    // Quadratic pair with an in-partition parent.
    if (parent_var >= 0) {
      VarPair pair;
      pair.child = static_cast<int>(vi);
      pair.parent = parent_var;
      pair.junction = seg.a;
      pair.scale = var.weight * std::min(cd, t.downstream_cap[seg.parent]);
      pair.load_ratio.resize(static_cast<std::size_t>(g.num_layers()), 0.0);
      const int cell = g.cell_id(seg.a.x, seg.a.y);
      for (int l = 0; l < g.num_layers(); ++l) {
        const double cap = std::max(1, state.via_cap(l, cell));
        pair.load_ratio[l] = static_cast<double>(state.via_load(l, cell)) / cap;
      }
      p.pairs.push_back(std::move(pair));
    }
  }

  // Pass 3: capacity rows, pruned to edges where the partition could
  // actually overflow. "Remaining" capacity excludes everything except the
  // in-partition segments themselves.
  //
  // One flat entry per (var, allowed layer, crossed edge), sorted by
  // (layer, edge, var): the cap_rows emission order is solver-visible (it feeds
  // the SDP Schur assembly and the ILP row order), so rows come out in key
  // order and each row keeps its members in var order.
  struct Entry {
    long long key;  // (layer << 32) | edge
    int var;
    bool is_current;  // the var currently sits on this layer
  };
  std::vector<Entry> entries;
  std::size_t num_entries = 0;
  for (const VarGroup& var : p.vars) {
    const int edges = state.tree(var.net).segs[var.seg].length();
    num_entries += var.layers.size() * static_cast<std::size_t>(edges);
  }
  entries.reserve(num_entries);
  for (std::size_t vi = 0; vi < p.vars.size(); ++vi) {
    const VarGroup& var = p.vars[vi];
    for (int l : var.layers) {
      state.for_each_edge(var.net, var.seg, [&](int e) {
        entries.push_back(Entry{(static_cast<long long>(l) << 32) | e, static_cast<int>(vi),
                                l == var.current_layer});
      });
    }
  }
  // A var crosses each (layer, edge) at most once and entries go in by
  // var, so ordering by (key, var) is the stable key order.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.var < b.var;
  });
  for (std::size_t lo = 0, hi = 0; lo < entries.size(); lo = hi) {
    int self_usage = 0;  // in-partition members currently assigned to this layer
    for (hi = lo; hi < entries.size() && entries[hi].key == entries[lo].key; ++hi) {
      self_usage += entries[hi].is_current ? 1 : 0;
    }
    const int l = static_cast<int>(entries[lo].key >> 32);
    const int e = static_cast<int>(entries[lo].key & 0xffffffff);
    const int others = state.wire_usage(l, e) - self_usage;
    const int remaining = std::max(0, state.wire_cap(l, e) - others);
    if (static_cast<int>(hi - lo) > remaining) {
      CapRow row{l, e, remaining, {}};
      row.members.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) row.members.push_back(entries[i].var);
      p.cap_rows.push_back(std::move(row));
    }
  }

  return p;
}

/// True if `pick` keeps every capacity row within its remaining budget.
std::vector<int> incumbent_pick(const PartitionProblem& p) {
  std::vector<int> pick(p.vars.size(), 0);
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
      if (p.vars[i].layers[k] == p.vars[i].current_layer) pick[i] = static_cast<int>(k);
    }
  }
  return pick;
}

bool rows_feasible(const PartitionProblem& p, const std::vector<int>& pick) {
  for (const CapRow& row : p.cap_rows) {
    int used = 0;
    for (int m : row.members) {
      if (p.vars[m].layers[pick[m]] == row.layer) ++used;
    }
    if (used > row.cap_remaining) return false;
  }
  return true;
}

/// Coordinate-descent polish of the rounded solution on the exact model
/// objective, staying inside the capacity rows. The SDP seeds the basin;
/// this removes residual rounding noise (part of the post-mapping stage).
void polish_pick(const PartitionProblem& p, std::vector<int>* pick) {
  // Row usage under the current pick.
  std::vector<int> row_used(p.cap_rows.size(), 0);
  for (std::size_t r = 0; r < p.cap_rows.size(); ++r) {
    for (int m : p.cap_rows[r].members) {
      if (p.vars[m].layers[(*pick)[m]] == p.cap_rows[r].layer) ++row_used[r];
    }
  }
  // Row membership per var.
  std::vector<std::vector<int>> rows_of(p.vars.size());
  for (std::size_t r = 0; r < p.cap_rows.size(); ++r) {
    for (int m : p.cap_rows[r].members) rows_of[m].push_back(static_cast<int>(r));
  }
  // Pair adjacency per var.
  std::vector<std::vector<int>> pairs_of(p.vars.size());
  for (std::size_t q = 0; q < p.pairs.size(); ++q) {
    pairs_of[p.pairs[q].child].push_back(static_cast<int>(q));
    pairs_of[p.pairs[q].parent].push_back(static_cast<int>(q));
  }

  auto delta_cost = [&](std::size_t i, int new_k) {
    const VarGroup& var = p.vars[i];
    double delta = var.cost[new_k] - var.cost[(*pick)[i]];
    for (int q : pairs_of[i]) {
      const VarPair& pair = p.pairs[q];
      const bool is_child = (pair.child == static_cast<int>(i));
      const int other = is_child ? pair.parent : pair.child;
      const int other_layer = p.vars[other].layers[(*pick)[other]];
      const int old_layer = var.layers[(*pick)[i]];
      const int new_layer = var.layers[new_k];
      if (is_child) {
        delta += p.pair_cost(pair, other_layer, new_layer) -
                 p.pair_cost(pair, other_layer, old_layer);
      } else {
        delta += p.pair_cost(pair, new_layer, other_layer) -
                 p.pair_cost(pair, old_layer, other_layer);
      }
    }
    return delta;
  };

  auto move_feasible = [&](std::size_t i, int new_k) {
    const int old_layer = p.vars[i].layers[(*pick)[i]];
    const int new_layer = p.vars[i].layers[new_k];
    for (int r : rows_of[i]) {
      const CapRow& row = p.cap_rows[r];
      if (row.layer == new_layer && row.layer != old_layer &&
          row_used[r] + 1 > row.cap_remaining) {
        return false;
      }
    }
    return true;
  };

  for (int sweep = 0; sweep < 16; ++sweep) {
    bool moved = false;
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      int best_k = (*pick)[i];
      double best_delta = -1e-9;
      for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
        if (static_cast<int>(k) == (*pick)[i] || !move_feasible(i, static_cast<int>(k))) {
          continue;
        }
        const double d = delta_cost(i, static_cast<int>(k));
        if (d < best_delta) {
          best_delta = d;
          best_k = static_cast<int>(k);
        }
      }
      if (best_k != (*pick)[i]) {
        const int old_layer = p.vars[i].layers[(*pick)[i]];
        const int new_layer = p.vars[i].layers[best_k];
        for (int r : rows_of[i]) {
          if (p.cap_rows[r].layer == old_layer) --row_used[r];
          if (p.cap_rows[r].layer == new_layer) ++row_used[r];
        }
        (*pick)[i] = best_k;
        moved = true;
      }
    }
    if (!moved) break;
  }
}


}  // namespace cpla::core

