#include "src/sta/timing_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/metrics.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/check.hpp"

namespace cpla::sta {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The sink's GCell: the far end of its attach segment, or the net root for
// sinks merged into the driver cell.
grid::XY sink_cell(const route::SegTree& tree, const route::SinkAttach& sink) {
  return sink.seg_id < 0 ? tree.root : tree.segs[sink.seg_id].b;
}

// Runs fn(i) for every i in [begin, end): on an OpenMP team when the range
// holds more than `serial_max` items, serially otherwise, without entering
// a parallel construct at all — its set-up costs more than a narrow
// level's work, and most levels hold a handful of nodes. Iterations write
// disjoint entries, so both ways give the same bits.
template <typename Fn>
void for_range(int begin, int end, int serial_max, const Fn& fn) {
  if (end - begin > serial_max) {
#pragma omp parallel for schedule(static)
    for (int i = begin; i < end; ++i) fn(i);
  } else {
    for (int i = begin; i < end; ++i) fn(i);
  }
}

}  // namespace

void TimingGraph::build(const assign::AssignState& state, const CornerSet& corners) {
  obs::ScopedPhase phase("sta.build");
  static obs::Counter& builds_counter = obs::metrics().counter("sta.graph.builds");
  static obs::Gauge& nodes_gauge = obs::metrics().gauge("sta.graph.nodes");
  static obs::Gauge& edges_gauge = obs::metrics().gauge("sta.graph.edges");

  CPLA_ASSERT_MSG(corners.size() > 0, "TimingGraph needs at least one corner");
  corners_ = &corners;
  num_corners_ = corners.size();
  topology_dirty_ = false;

  const grid::GridGraph& grid = state.design().grid;
  const int num_nets = state.num_nets();
  const int nc = corners.size();

  // --- Nodes: driver then sinks, nets ascending ------------------------
  kind_.clear();
  node_net_.clear();
  node_sink_.clear();
  driver_node_.assign(num_nets, -1);
  for (int net = 0; net < num_nets; ++net) {
    const route::SegTree& tree = state.tree(net);
    if (tree.segs.empty() && tree.sinks.empty()) continue;  // removed/placeholder
    driver_node_[net] = static_cast<int>(kind_.size());
    kind_.push_back(static_cast<char>(NodeKind::kDriver));
    node_net_.push_back(net);
    node_sink_.push_back(-1);
    for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
      kind_.push_back(static_cast<char>(NodeKind::kSink));
      node_net_.push_back(net);
      node_sink_.push_back(k);
    }
  }
  const int n = num_nodes();

  // --- Edges, CSR by source --------------------------------------------
  // Driver cells, sorted by (cell, node) for binary-searched stage-edge
  // discovery (no unordered containers: src/sta is order-sensitive).
  std::vector<std::pair<int, int>> driver_at_cell;  // (cell id, driver node)
  for (int net = 0; net < num_nets; ++net) {
    if (driver_node_[net] < 0) continue;
    const route::SegTree& tree = state.tree(net);
    driver_at_cell.emplace_back(grid.cell_id(tree.root.x, tree.root.y), driver_node_[net]);
  }
  std::sort(driver_at_cell.begin(), driver_at_cell.end());

  out_begin_.assign(n + 1, 0);
  edge_to_.clear();
  for (int v = 0; v < n; ++v) {
    out_begin_[v] = static_cast<int>(edge_to_.size());
    const int net = node_net_[v];
    const route::SegTree& tree = state.tree(net);
    if (kind(v) == NodeKind::kDriver) {
      // Net edges, sink order: edge id of driver->sink k is out_begin_[v]+k.
      for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
        edge_to_.push_back(v + 1 + k);
      }
    } else {
      // Stage edges to every other net driven from the sink's cell,
      // ascending driver-node order (driver_at_cell is sorted).
      const grid::XY cell = sink_cell(tree, tree.sinks[node_sink_[v]]);
      const int cell_id = grid.cell_id(cell.x, cell.y);
      auto range = std::equal_range(driver_at_cell.begin(), driver_at_cell.end(),
                                    std::make_pair(cell_id, 0),
                                    [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == driver_node_[net]) continue;  // no self-stage
        edge_to_.push_back(it->second);
      }
    }
  }
  out_begin_[n] = static_cast<int>(edge_to_.size());
  const int m = num_edges();
  edge_enabled_.assign(m, 1);

  // Reverse CSR; pushing edges in ascending id keeps each node's in-edge
  // list ascending — the pinned reduction order of the arrival max.
  in_begin_.assign(n + 1, 0);
  for (int e = 0; e < m; ++e) ++in_begin_[edge_to_[e] + 1];
  for (int v = 0; v < n; ++v) in_begin_[v + 1] += in_begin_[v];
  in_edge_.assign(m, 0);
  std::vector<int> in_from(m, 0);  // per in-edge: its source node
  {
    std::vector<int> cursor(in_begin_.begin(), in_begin_.end() - 1);
    for (int v = 0; v < n; ++v) {
      for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
        const int i = cursor[edge_to_[e]]++;
        in_edge_[i] = e;
        in_from[i] = v;
      }
    }
  }

  levelize(in_from);
  order_storage(in_from);

  // --- Delays and propagation ------------------------------------------
  delay_.assign(static_cast<std::size_t>(m) * nc, 0.0);  // stage edges: zero delay
  timed_layers_.assign(num_nets, {});
  for (int net = 0; net < num_nets; ++net) {
    if (driver_node_[net] >= 0) retime_net(state, net);
  }

  arrival_.assign(static_cast<std::size_t>(n) * nc, 0.0);
  required_.assign(static_cast<std::size_t>(n) * nc, 0.0);
  worst_slack_.assign(n, kInf);
  effective_required_.assign(nc, 0.0);
  propagate_full();

  ++stats_.builds;
  builds_counter.add();
  nodes_gauge.set(n);
  edges_gauge.set(m);
  static obs::Gauge& worst_gauge = obs::metrics().gauge("sta.slack.worst");
  worst_gauge.set(worst_slack());
}

void TimingGraph::levelize(const std::vector<int>& in_from) {
  obs::ScopedPhase phase("sta.levelize");
  static obs::Counter& cycle_edges = obs::metrics().counter("sta.graph.cycle_edges");

  const int n = num_nodes();
  stats_.broken_cycle_edges = 0;
  level_.assign(n, 0);
  level_begin_.clear();
  level_nodes_.clear();
  level_nodes_.reserve(n);

  std::vector<int> indeg(n, 0);
  for (int e = 0; e < num_edges(); ++e) ++indeg[edge_to_[e]];
  std::vector<char> placed(n, 0);

  std::vector<int> frontier, next;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) frontier.push_back(v);
  }
  int processed = 0;
  int level = 0;
  int unplaced = 0;  // every node below it is placed
  while (processed < n) {
    if (frontier.empty()) {
      // Cycle (the spatial stage heuristic can produce them): break it at
      // the smallest unplaced node by disabling its in-edges from unplaced
      // sources. Deterministic, and counted. `placed` only grows, so the
      // smallest unplaced id never decreases and the scan resumes where
      // the last break left it.
      while (unplaced < n && placed[unplaced]) ++unplaced;
      CPLA_ASSERT(unplaced < n);
      const int victim = unplaced;
      for (int i = in_begin_[victim]; i < in_begin_[victim + 1]; ++i) {
        const int e = in_edge_[i];
        if (edge_enabled_[e] && !placed[in_from[i]]) {
          edge_enabled_[e] = 0;
          ++stats_.broken_cycle_edges;
          cycle_edges.add();
        }
      }
      indeg[victim] = 0;
      frontier.push_back(victim);
    }
    level_begin_.push_back(static_cast<int>(level_nodes_.size()));
    for (int v : frontier) {
      level_[v] = level;
      placed[v] = 1;
      level_nodes_.push_back(v);
    }
    processed += static_cast<int>(frontier.size());
    next.clear();
    for (int v : frontier) {
      for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
        if (edge_enabled_[e] && --indeg[edge_to_[e]] == 0) next.push_back(edge_to_[e]);
      }
    }
    std::sort(next.begin(), next.end());
    frontier.swap(next);
    ++level;
  }
  level_begin_.push_back(static_cast<int>(level_nodes_.size()));
  num_levels_ = static_cast<int>(level_begin_.size()) - 1;

  endpoints_.clear();
  for (int v = 0; v < n; ++v) {
    bool has_out = false;
    for (int e = out_begin_[v]; e < out_begin_[v + 1] && !has_out; ++e) {
      has_out = edge_enabled_[e] != 0;
    }
    if (!has_out) endpoints_.push_back(v);
  }
}

void TimingGraph::order_storage(const std::vector<int>& in_from) {
  const int n = num_nodes();
  const int m = num_edges();
  pos_.assign(n, 0);
  for (int p = 0; p < n; ++p) pos_[level_nodes_[p]] = p;
  endpoint_pos_.clear();
  for (const int v : endpoints_) endpoint_pos_.push_back(pos_[v]);

  // Enabled out-edge slots, by source position; each node's keep their
  // ascending id order (the pinned order of the required min). Disabled
  // edges take the slots after them: propagation never reads those, but
  // their delays stay readable.
  out_slot_begin_.assign(n + 1, 0);
  slot_to_.clear();
  edge_slot_.assign(m, 0);
  int k = 0;
  for (int p = 0; p < n; ++p) {
    out_slot_begin_[p] = k;
    const int v = level_nodes_[p];
    for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
      if (!edge_enabled_[e]) continue;
      edge_slot_[e] = k++;
      slot_to_.push_back(pos_[edge_to_[e]]);
    }
  }
  out_slot_begin_[n] = k;
  for (int e = 0; e < m; ++e) {
    if (!edge_enabled_[e]) edge_slot_[e] = k++;
  }

  // Enabled in-edges, by target position, in ascending edge id (the pinned
  // order of the arrival max).
  in_pos_begin_.assign(n + 1, 0);
  in_from_pos_.clear();
  in_slot_.clear();
  for (int p = 0; p < n; ++p) {
    in_pos_begin_[p] = static_cast<int>(in_slot_.size());
    const int v = level_nodes_[p];
    for (int i = in_begin_[v]; i < in_begin_[v + 1]; ++i) {
      if (!edge_enabled_[in_edge_[i]]) continue;
      in_from_pos_.push_back(pos_[in_from[i]]);
      in_slot_.push_back(edge_slot_[in_edge_[i]]);
    }
  }
  in_pos_begin_[n] = static_cast<int>(in_slot_.size());
}

void TimingGraph::retime_net(const assign::AssignState& state, int net) {
  const route::SegTree& tree = state.tree(net);
  const std::vector<int>* layers = &state.layers(net);
  std::vector<int> fallback;
  if (layers->size() != tree.segs.size()) {
    fallback = state.default_layers(tree);
    layers = &fallback;
  }
  timed_layers_[net] = *layers;
  if (tree.sinks.empty()) return;
  // Net edges are the driver's first out-edges, in sink order.
  const int first_edge = out_begin_[driver_node_[net]];
  const int num_sinks = static_cast<int>(tree.sinks.size());
  elmore_cd_.resize(std::max(elmore_cd_.size(), tree.segs.size()));
  elmore_arrival_.resize(elmore_cd_.size());
  elmore_sinks_.resize(std::max(elmore_sinks_.size(), tree.sinks.size()));
  for (int c = 0; c < num_corners_; ++c) {
    timing::elmore_delays(tree, *layers, corners_->rc(c), elmore_cd_, elmore_arrival_,
                          elmore_sinks_);
    for (int k = 0; k < num_sinks; ++k) {
      delay_[slot(edge_slot_[first_edge + k], c)] = elmore_sinks_[k];
    }
  }
}

void TimingGraph::arrival_into(int p, double* arr) const {
  // Each corner folds its max in ascending edge-id order (pinned), in a
  // local that stays in a register.
  const int begin = in_pos_begin_[p];
  const int end = in_pos_begin_[p + 1];
  for (int c = 0; c < num_corners_; ++c) {
    double arrival = 0.0;
    for (int i = begin; i < end; ++i) {
      arrival =
          std::max(arrival, arrival_[slot(in_from_pos_[i], c)] + delay_[slot(in_slot_[i], c)]);
    }
    arr[c] = arrival;
  }
}

void TimingGraph::required_into(int p, double* req) const {
  const int begin = out_slot_begin_[p];
  const int end = out_slot_begin_[p + 1];
  for (int c = 0; c < num_corners_; ++c) {
    double required = kInf;
    for (int k = begin; k < end; ++k) {
      required = std::min(required, required_[slot(slot_to_[k], c)] - delay_[slot(k, c)]);
    }
    req[c] = required == kInf ? effective_required_[c] : required;  // kInf: endpoint
  }
}

bool TimingGraph::refresh_effective_required() {
  // Derived budgets: the corner's worst endpoint arrival, so the most
  // critical endpoint sits at exactly zero slack. One pass over the
  // endpoints serves every corner; each corner's max still folds in
  // endpoint order.
  budget_.assign(static_cast<std::size_t>(num_corners_), 0.0);
  for (const int p : endpoint_pos_) {
    const double* arr = &arrival_[slot(p, 0)];
    for (int c = 0; c < num_corners_; ++c) budget_[c] = std::max(budget_[c], arr[c]);
  }
  bool changed = false;
  for (int c = 0; c < num_corners_; ++c) {
    const double explicit_time = corners_->corner(c).required_time;
    const double req = explicit_time < 0.0 ? budget_[c] : explicit_time;
    if (req != effective_required_[c]) {
      effective_required_[c] = req;
      changed = true;
    }
  }
  return changed;
}

void TimingGraph::merge_slack(int p) {
  double worst = kInf;
  for (int c = 0; c < num_corners_; ++c) {
    const std::size_t i = slot(p, c);
    worst = std::min(worst, required_[i] - arrival_[i]);
  }
  worst_slack_[p] = worst;
}

void TimingGraph::sweep_required() {
  // Arrival is final, so each node's slack merges as soon as its required
  // time is. A node's kernel reads only later levels' entries, so it
  // writes its own in place.
  for (int lv = num_levels_ - 1; lv >= 0; --lv) {
    for_range(level_begin_[lv], level_begin_[lv + 1], 64, [this](int p) {
      required_into(p, &required_[slot(p, 0)]);
      merge_slack(p);
    });
  }
}

void TimingGraph::propagate_full() {
  obs::ScopedPhase phase("sta.propagate");
  for (int lv = 0; lv < num_levels_; ++lv) {
    for_range(level_begin_[lv], level_begin_[lv + 1], 64,
              [this](int p) { arrival_into(p, &arrival_[slot(p, 0)]); });
  }
  refresh_effective_required();
  sweep_required();
}

void TimingGraph::propagate_cones(const assign::AssignState& state,
                                  const std::vector<int>& dirty_nets) {
  const int n = num_nodes();

  // --- Forward cone: arrival, level order, stop on bitwise equality -----
  // Frontier and touched flags are per position.
  std::vector<char> in_frontier(n, 0);
  std::vector<char> touched(n, 0);
  for (const int net : dirty_nets) {
    const route::SegTree& tree = state.tree(net);
    for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
      in_frontier[pos_[sink_node(net, k)]] = 1;
    }
  }
  // Recomputes `values`' entry for p (all corners) with `kernel` and
  // reports whether any changed. "Unchanged" must mean bitwise-equal (the
  // contract): +0.0 == -0.0 compares equal but differs in bits, so signs
  // are checked too.
  std::vector<double> fresh(static_cast<std::size_t>(num_corners_));
  auto recompute = [&](std::vector<double>& values, int p, auto&& kernel) {
    kernel(p, fresh.data());
    double* now = &values[slot(p, 0)];
    bool changed = false;
    for (int c = 0; c < num_corners_; ++c) {
      changed |= now[c] != fresh[c] || std::signbit(now[c]) != std::signbit(fresh[c]);
      now[c] = fresh[c];
    }
    return changed;
  };
  const auto arrival = [this](int p, double* out) { arrival_into(p, out); };
  const auto required = [this](int p, double* out) { required_into(p, out); };
  for (int p = 0; p < n; ++p) {  // positions are (level, id)-ordered
    if (!in_frontier[p]) continue;
    ++stats_.dirty_nodes;
    if (!recompute(arrival_, p, arrival)) continue;
    touched[p] = 1;
    for (int k = out_slot_begin_[p]; k < out_slot_begin_[p + 1]; ++k) {
      in_frontier[slot_to_[k]] = 1;
    }
  }

  // --- Required: a sweep when the budget moved, else the backward cone ----
  if (refresh_effective_required()) {
    // A derived budget moved: every endpoint's required time changes, so
    // the backward cone is the whole graph. Sweep it as build() does —
    // bit-identical by construction — and merge every node's slack.
    stats_.dirty_nodes += n;
    sweep_required();
    return;
  }
  std::fill(in_frontier.begin(), in_frontier.end(), 0);
  // A dirty net's edge delays feed the driver's required min directly.
  for (const int net : dirty_nets) in_frontier[pos_[driver_node_[net]]] = 1;
  for (int p = n - 1; p >= 0; --p) {
    if (!in_frontier[p]) continue;
    ++stats_.dirty_nodes;
    if (!recompute(required_, p, required)) continue;
    touched[p] = 1;
    for (int i = in_pos_begin_[p]; i < in_pos_begin_[p + 1]; ++i) in_frontier[in_from_pos_[i]] = 1;
  }
  for (int p = 0; p < n; ++p) {
    if (touched[p]) merge_slack(p);
  }
}

void TimingGraph::update(const assign::AssignState& state) {
  CPLA_ASSERT_MSG(built(), "TimingGraph::update before build");
  static obs::Counter& full_counter = obs::metrics().counter("sta.update.full");
  static obs::Counter& incr_counter = obs::metrics().counter("sta.update.incremental");
  static obs::Counter& dirty_counter = obs::metrics().counter("sta.update.dirty_nodes");
  static obs::Gauge& worst_gauge = obs::metrics().gauge("sta.slack.worst");

  if (topology_dirty_ || state.num_nets() != static_cast<int>(driver_node_.size())) {
    full_counter.add();
    build(state, *corners_);
    return;
  }

  obs::ScopedPhase phase("sta.update");

  // --- Dirty nets: exact compare against the last-timed layer vectors ---
  std::vector<int> dirty_nets;
  for (int net = 0; net < state.num_nets(); ++net) {
    if (driver_node_[net] < 0) continue;
    const route::SegTree& tree = state.tree(net);
    const std::vector<int>* layers = &state.layers(net);
    std::vector<int> fallback;
    if (layers->size() != tree.segs.size()) {
      fallback = state.default_layers(tree);
      layers = &fallback;
    }
    if (*layers != timed_layers_[net]) dirty_nets.push_back(net);
  }
  ++stats_.incremental_updates;
  incr_counter.add();
  stats_.dirty_nets = static_cast<long>(dirty_nets.size());
  stats_.dirty_nodes = 0;
  if (!dirty_nets.empty()) {
    for (const int net : dirty_nets) retime_net(state, net);
    propagate_cones(state, dirty_nets);
    dirty_counter.add(stats_.dirty_nodes);
  }
  worst_gauge.set(worst_slack());
}

double TimingGraph::worst_slack() const {
  double worst = kInf;
  for (const int p : endpoint_pos_) worst = std::min(worst, worst_slack_[p]);
  return worst;
}

double TimingGraph::net_slack(int net) const {
  if (!has_net(net)) return kInf;
  double worst = kInf;
  // A net's nodes are contiguous: driver, then its sinks.
  for (int v = driver_node_[net]; v < num_nodes() && node_net_[v] == net; ++v) {
    worst = std::min(worst, worst_slack_[pos_[v]]);
  }
  return worst;
}

}  // namespace cpla::sta
