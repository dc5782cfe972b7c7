#pragma once

// 2-D routing primitives: per-net sets of unit grid edges plus a 2-D usage
// map with PathFinder-style history costs.

#include <vector>

#include "src/grid/design.hpp"

namespace cpla::route {

/// A net's 2-D route: sorted, deduplicated directional unit-edge id sets
/// (ids per GridGraph::h_edge_id / v_edge_id).
struct NetRoute {
  std::vector<int> h_edges;
  std::vector<int> v_edges;

  bool empty() const { return h_edges.empty() && v_edges.empty(); }
  std::size_t wirelength() const { return h_edges.size() + v_edges.size(); }

  void add_h(int id) { h_edges.push_back(id); }
  void add_v(int id) { v_edges.push_back(id); }

  /// Sorts and removes duplicate edges.
  void normalize();
};

/// 2-D wire usage with projected capacities and negotiation history.
class Usage2D {
 public:
  explicit Usage2D(const grid::GridGraph& g);

  void add(const NetRoute& r, int delta);

  int h_usage(int id) const { return h_usage_[id]; }
  int v_usage(int id) const { return v_usage_[id]; }
  int h_cap(int id) const { return h_cap_[id]; }
  int v_cap(int id) const { return v_cap_[id]; }

  double h_history(int id) const { return h_hist_[id]; }
  double v_history(int id) const { return v_hist_[id]; }

  /// Total units of usage above capacity.
  long total_overflow() const;

  /// Bumps history on every currently-overflowed edge (negotiation step).
  /// `amount` must be >= 0: history never lowers a cost, so every edge
  /// costs at least 1 (maze routing's bucket queue relies on it).
  void bump_history(double amount);

  /// Routing cost of pushing one more wire through the edge, kept current
  /// by add() and bump_history().
  double h_cost(int id) const { return h_cost_[id]; }
  double v_cost(int id) const { return v_cost_[id]; }

 private:
  static double edge_cost(int usage, int cap, double hist);
  std::vector<int> h_usage_, v_usage_;
  std::vector<int> h_cap_, v_cap_;
  std::vector<double> h_hist_, v_hist_;
  std::vector<double> h_cost_, v_cost_;
};

}  // namespace cpla::route
