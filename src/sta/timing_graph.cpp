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
  in_from_.assign(m, 0);
  {
    std::vector<int> cursor(in_begin_.begin(), in_begin_.end() - 1);
    for (int v = 0; v < n; ++v) {
      for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
        const int i = cursor[edge_to_[e]]++;
        in_edge_[i] = e;
        in_from_[i] = v;
      }
    }
  }

  levelize();

  // --- Delays and propagation ------------------------------------------
  edge_delay_.assign(static_cast<std::size_t>(m) * nc, 0.0);  // stage edges: zero delay
  timed_layers_.assign(num_nets, {});
  for (int net = 0; net < num_nets; ++net) {
    if (driver_node_[net] >= 0) retime_net(state, net);
  }

  arrival_.assign(static_cast<std::size_t>(n) * nc, 0.0);
  required_.assign(static_cast<std::size_t>(n) * nc, 0.0);
  slack_.assign(static_cast<std::size_t>(n) * nc, 0.0);
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

void TimingGraph::levelize() {
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
        if (edge_enabled_[e] && !placed[in_from_[i]]) {
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
  const int first_edge = out_begin_[driver_node_[net]];
  const int num_sinks = static_cast<int>(tree.sinks.size());
  elmore_cd_.resize(std::max(elmore_cd_.size(), tree.segs.size()));
  elmore_arrival_.resize(elmore_cd_.size());
  elmore_sinks_.resize(std::max(elmore_sinks_.size(), tree.sinks.size()));
  for (int c = 0; c < num_corners_; ++c) {
    timing::elmore_delays(tree, *layers, corners_->rc(c), elmore_cd_, elmore_arrival_,
                          elmore_sinks_);
    for (int k = 0; k < num_sinks; ++k) edge_delay_[slot(first_edge + k, c)] = elmore_sinks_[k];
  }
}

void TimingGraph::recompute_arrival(int v) {
  // Edge-major: one pass over the in-edges serves every corner, and each
  // corner still folds its max in ascending edge-id order (pinned).
  double* arr = &arrival_[slot(v, 0)];
  std::fill(arr, arr + num_corners_, 0.0);
  for (int i = in_begin_[v]; i < in_begin_[v + 1]; ++i) {
    const int e = in_edge_[i];
    if (!edge_enabled_[e]) continue;
    const double* from = &arrival_[slot(in_from_[i], 0)];
    const double* delay = &edge_delay_[slot(e, 0)];
    for (int c = 0; c < num_corners_; ++c) arr[c] = std::max(arr[c], from[c] + delay[c]);
  }
}

void TimingGraph::recompute_required(int v) {
  double* req = &required_[slot(v, 0)];
  std::fill(req, req + num_corners_, kInf);
  for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
    if (!edge_enabled_[e]) continue;
    const double* to = &required_[slot(edge_to_[e], 0)];
    const double* delay = &edge_delay_[slot(e, 0)];
    for (int c = 0; c < num_corners_; ++c) req[c] = std::min(req[c], to[c] - delay[c]);
  }
  for (int c = 0; c < num_corners_; ++c) {
    if (req[c] == kInf) req[c] = effective_required_[c];  // endpoint
  }
}

bool TimingGraph::refresh_effective_required() {
  bool changed = false;
  for (int c = 0; c < num_corners_; ++c) {
    double req = corners_->corner(c).required_time;
    if (req < 0.0) {
      // Derived budget: the corner's worst endpoint arrival, so the most
      // critical endpoint sits at exactly zero slack.
      req = 0.0;
      for (const int v : endpoints_) req = std::max(req, arrival_[slot(v, c)]);
    }
    if (req != effective_required_[c]) {
      effective_required_[c] = req;
      changed = true;
    }
  }
  return changed;
}

void TimingGraph::merge_slack(int v) {
  double worst = kInf;
  for (int c = 0; c < num_corners_; ++c) {
    const std::size_t i = slot(v, c);
    slack_[i] = required_[i] - arrival_[i];
    worst = std::min(worst, slack_[i]);
  }
  worst_slack_[v] = worst;
}

void TimingGraph::propagate_full() {
  obs::ScopedPhase phase("sta.propagate");
  const int n = num_nodes();
  for (int lv = 0; lv < num_levels_; ++lv) {
    const int begin = level_begin_[lv];
    const int end = level_begin_[lv + 1];
#pragma omp parallel for schedule(static) if (end - begin > 64)
    for (int i = begin; i < end; ++i) recompute_arrival(level_nodes_[i]);
  }
  refresh_effective_required();
  for (int lv = num_levels_ - 1; lv >= 0; --lv) {
    const int begin = level_begin_[lv];
    const int end = level_begin_[lv + 1];
#pragma omp parallel for schedule(static) if (end - begin > 64)
    for (int i = begin; i < end; ++i) recompute_required(level_nodes_[i]);
  }
#pragma omp parallel for schedule(static) if (n > 256)
  for (int v = 0; v < n; ++v) merge_slack(v);
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
  const int n = num_nodes();

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
  if (dirty_nets.empty()) {
    worst_gauge.set(worst_slack());
    return;
  }
  for (const int net : dirty_nets) retime_net(state, net);

  // --- Forward cone: arrival, level order, stop on bitwise equality -----
  std::vector<char> in_frontier(n, 0);
  std::vector<char> touched(n, 0);
  for (const int net : dirty_nets) {
    const route::SegTree& tree = state.tree(net);
    for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
      in_frontier[sink_node(net, k)] = 1;
    }
  }
  // Recomputes `values`' entry for v (all corners) and reports whether any
  // changed. "Unchanged" must mean bitwise-equal (the contract): +0.0 ==
  // -0.0 compares equal but differs in bits, so signs are checked too.
  std::vector<double> before(static_cast<std::size_t>(num_corners_));
  auto recompute = [&](std::vector<double>& values, int v, auto&& fn) {
    const double* now = &values[slot(v, 0)];
    std::copy(now, now + num_corners_, before.begin());
    fn(v);
    bool changed = false;
    for (int c = 0; c < num_corners_; ++c) {
      changed |= now[c] != before[c] || std::signbit(now[c]) != std::signbit(before[c]);
    }
    return changed;
  };
  for (int i = 0; i < n; ++i) {  // level_nodes_ is (level, id)-ordered
    const int v = level_nodes_[i];
    if (!in_frontier[v]) continue;
    ++stats_.dirty_nodes;
    if (!recompute(arrival_, v, [this](int u) { recompute_arrival(u); })) continue;
    touched[v] = 1;
    for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
      if (edge_enabled_[e]) in_frontier[edge_to_[e]] = 1;
    }
  }

  // --- Backward cone: required --------------------------------------------
  std::fill(in_frontier.begin(), in_frontier.end(), 0);
  // A dirty net's edge delays feed the driver's required min directly.
  for (const int net : dirty_nets) in_frontier[driver_node_[net]] = 1;
  if (refresh_effective_required()) {
    // The derived budget moved: every endpoint's required changes.
    for (const int v : endpoints_) in_frontier[v] = 1;
  }
  for (int i = n - 1; i >= 0; --i) {
    const int v = level_nodes_[i];
    if (!in_frontier[v]) continue;
    ++stats_.dirty_nodes;
    if (!recompute(required_, v, [this](int u) { recompute_required(u); })) continue;
    touched[v] = 1;
    for (int j = in_begin_[v]; j < in_begin_[v + 1]; ++j) {
      if (edge_enabled_[in_edge_[j]]) in_frontier[in_from_[j]] = 1;
    }
  }

  for (int v = 0; v < n; ++v) {
    if (touched[v]) merge_slack(v);
  }
  dirty_counter.add(stats_.dirty_nodes);
  worst_gauge.set(worst_slack());
}

double TimingGraph::worst_slack() const {
  double worst = kInf;
  for (const int v : endpoints_) worst = std::min(worst, worst_slack_[v]);
  return worst;
}

double TimingGraph::net_slack(int net) const {
  if (!has_net(net)) return kInf;
  double worst = kInf;
  // A net's nodes are contiguous: driver, then its sinks.
  for (int v = driver_node_[net]; v < num_nodes() && node_net_[v] == net; ++v) {
    worst = std::min(worst, worst_slack_[v]);
  }
  return worst;
}

}  // namespace cpla::sta
