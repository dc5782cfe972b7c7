#pragma once

// Incremental multi-corner STA over the routed design.
//
// Graph model. Two node kinds per net with a nonempty routing tree:
//
//   * one DRIVER node at the net's root cell,
//   * one SINK node per sink attach (SegTree::sinks order).
//
// Edges:
//
//   * net edges  driver(n) -> sink(n, k), one per sink, whose per-corner
//     delay is the Elmore root-to-sink delay of net n under the
//     corner's RcTable — recomputed whenever the net's layer vector
//     changes;
//   * stage edges  sink(a, k) -> driver(b)  whenever sink k of net a sits
//     in the same GCell as the root of net b (a != b): the spatial stand-in
//     for the gate that would connect the two nets in a full netlist. Their
//     delay is zero at every corner: they carry arrival across nets but add
//     none of their own.
//
// The graph is levelized (Kahn; cycles from the spatial heuristic are
// broken deterministically at the smallest-id stalled node and counted).
// Per corner, arrival propagates forward in level order (max over in-edges
// in ascending edge-id order — the pinned reduction order of the
// bit-identity contract), required time propagates backward (min over
// out-edges), slack = required - arrival, and the worst-over-corners merge
// min_c slack(c, v) is the flow-facing criticality. Endpoints are nodes
// with no enabled out-edges; a corner with required_time < 0 derives its
// budget from its own worst endpoint arrival.
//
// update() re-times incrementally: nets whose layer vectors changed are
// re-timed, and only the affected fan-out (arrival) / fan-in (required)
// cones are re-propagated, stopping where recomputed values are bitwise
// equal to stored ones. Registered in determinism_contract.hpp: an
// incremental update is bit-identical to a from-scratch build() on the
// same state. Tree-shape changes (ECO reroute/add/remove) are topology
// changes — call invalidate_topology() and the next update() rebuilds.
//
// Not thread-safe: one writer at a time. The internal level-parallel
// propagation (OpenMP over the nodes of a wide level) is deterministic —
// nodes within a level write disjoint entries and read only earlier levels.

#include <algorithm>
#include <vector>

#include "src/assign/state.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/path_enum.hpp"

namespace cpla::sta {

using NodeId = int;

enum class NodeKind : char { kDriver, kSink };

class TimingGraph {
 public:
  struct Stats {
    long builds = 0;               // from-scratch builds (including rebuilds)
    long incremental_updates = 0;  // update() calls served incrementally
    long dirty_nets = 0;           // nets re-timed by the last update
    long dirty_nodes = 0;          // nodes re-propagated by the last update
    long broken_cycle_edges = 0;   // edges disabled by cycle breaking (current graph)
  };

  TimingGraph() = default;

  /// From-scratch build. `corners` is borrowed and must outlive the graph
  /// (update() re-times against the same set).
  void build(const assign::AssignState& state, const CornerSet& corners);

  bool built() const { return corners_ != nullptr; }

  /// Marks the graph topology stale (a net's tree changed shape, or nets
  /// were added/removed): the next update() rebuilds from scratch. Pure
  /// layer changes never need this — update() detects them by exact
  /// layer-vector comparison.
  void invalidate_topology() { topology_dirty_ = true; }

  /// Re-times against the (possibly mutated) state. Bit-identical to a
  /// fresh build() on the same state — the registered contract.
  void update(const assign::AssignState& state);

  // --- Shape -----------------------------------------------------------
  int num_corners() const { return num_corners_; }
  int num_nodes() const { return static_cast<int>(kind_.size()); }
  int num_edges() const { return static_cast<int>(edge_to_.size()); }
  int num_levels() const { return num_levels_; }

  NodeKind kind(NodeId v) const { return static_cast<NodeKind>(kind_[v]); }
  int node_net(NodeId v) const { return node_net_[v]; }
  /// Sink index within the net (SegTree::sinks order); -1 for drivers.
  int node_sink(NodeId v) const { return node_sink_[v]; }

  bool has_net(int net) const {
    return net >= 0 && net < static_cast<int>(driver_node_.size()) && driver_node_[net] >= 0;
  }
  NodeId driver_node(int net) const { return driver_node_[net]; }
  NodeId sink_node(int net, int k) const { return driver_node_[net] + 1 + k; }

  /// Endpoint node ids (no enabled out-edges), ascending.
  const std::vector<NodeId>& endpoints() const { return endpoints_; }

  // --- Edge / level inspection (tests, tools, reporting) ---------------
  // Out-edges of `v` are the contiguous edge-id range
  // [out_edge_begin(v), out_edge_end(v)); in-edges are in_edge(v, 0..in_degree).
  int out_edge_begin(NodeId v) const { return out_begin_[v]; }
  int out_edge_end(NodeId v) const { return out_begin_[v + 1]; }
  int in_degree(NodeId v) const { return in_begin_[v + 1] - in_begin_[v]; }
  int in_edge(NodeId v, int i) const { return in_edge_[in_begin_[v] + i]; }
  /// Source node of edge `e`: the node whose out-edge range holds it.
  int edge_from(int e) const {
    return static_cast<int>(std::upper_bound(out_begin_.begin(), out_begin_.end(), e) -
                            out_begin_.begin()) -
           1;
  }
  int edge_to(int e) const { return edge_to_[e]; }
  /// False = removed by deterministic cycle breaking.
  bool edge_enabled(int e) const { return edge_enabled_[e] != 0; }
  double edge_delay(int corner, int e) const { return edge_delay_[slot(e, corner)]; }
  /// Topological level of `v` (enabled edges always go level-up).
  int level(NodeId v) const { return level_[v]; }

  // --- Timing ----------------------------------------------------------
  double arrival(int corner, NodeId v) const { return arrival_[slot(v, corner)]; }
  double required(int corner, NodeId v) const { return required_[slot(v, corner)]; }
  double slack(int corner, NodeId v) const { return slack_[slot(v, corner)]; }

  /// Worst slack over corners at one node — the flow's objective merge.
  double worst_slack(NodeId v) const { return worst_slack_[v]; }

  /// Worst slack over every endpoint (the design's critical-path slack).
  double worst_slack() const;

  /// min worst_slack over the net's driver and sink nodes; +infinity for
  /// nets absent from the graph (empty placeholder trees).
  double net_slack(int net) const;

  /// The effective required time of corner `c` (explicit, or the derived
  /// worst-endpoint-arrival budget).
  double corner_required(int c) const { return effective_required_[c]; }

  /// Top-K critical paths at one corner: the K paths with the smallest
  /// slack, ascending, ties broken by lexicographically smaller node
  /// sequence. Branch-and-bound over the slack-annotated DAG — exact, and
  /// never enumerates more than K complete paths. Implemented in
  /// path_enum.cpp (registered bit-identity TU).
  std::vector<TimingPath> report_top_k_paths(int corner, int k) const;

  const Stats& stats() const { return stats_; }

 private:
  /// Index of (node or edge `i`, corner `c`) in the corner-minor arrays.
  std::size_t slot(int i, int c) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(num_corners_) +
           static_cast<std::size_t>(c);
  }

  void levelize();
  void retime_net(const assign::AssignState& state, int net);
  void propagate_full();
  void recompute_arrival(int v);
  void recompute_required(int v);
  bool refresh_effective_required();
  void merge_slack(int v);

  const CornerSet* corners_ = nullptr;  // borrowed
  int num_corners_ = 0;
  bool topology_dirty_ = false;
  int num_levels_ = 0;

  // Nodes. Layout: driver(net), sink(net, 0), ..., per net ascending.
  std::vector<char> kind_;
  std::vector<int> node_net_;
  std::vector<int> node_sink_;
  std::vector<int> driver_node_;  // per net id; -1 = net absent

  // Edges, CSR by source node; edge id order is the pinned order every
  // reduction below iterates in.
  std::vector<int> out_begin_;      // per node, size nodes+1
  std::vector<int> edge_to_;        // per edge
  std::vector<char> edge_enabled_;  // false = removed by cycle breaking
  std::vector<double> edge_delay_;  // [edge][corner], slot(e, c)
  // Reverse adjacency: in-edge ids per node, ascending (CSR), each with
  // its source node (what every in-edge walk reads next).
  std::vector<int> in_begin_;
  std::vector<int> in_edge_;
  std::vector<int> in_from_;

  // Levelization: nodes sorted by (level, id), CSR over levels.
  std::vector<int> level_;
  std::vector<int> level_begin_;
  std::vector<int> level_nodes_;

  std::vector<NodeId> endpoints_;

  // Timing values, [node][corner] (slot(v, c)): a node's corners share a
  // cache line, and every propagation step reads all of them.
  std::vector<double> arrival_, required_, slack_;
  std::vector<double> worst_slack_;          // per node, min over corners
  std::vector<double> effective_required_;   // per corner
  std::vector<std::vector<int>> timed_layers_;  // per net: layers last timed with
  // retime_net's Elmore kernel scratch (per segment / per sink).
  std::vector<double> elmore_cd_, elmore_arrival_, elmore_sinks_;

  Stats stats_;
};

}  // namespace cpla::sta
