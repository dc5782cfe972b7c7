#include "src/route/route2d.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace cpla::route {

void NetRoute::normalize() {
  std::sort(h_edges.begin(), h_edges.end());
  h_edges.erase(std::unique(h_edges.begin(), h_edges.end()), h_edges.end());
  std::sort(v_edges.begin(), v_edges.end());
  v_edges.erase(std::unique(v_edges.begin(), v_edges.end()), v_edges.end());
}

Usage2D::Usage2D(const grid::GridGraph& g) {
  h_usage_.assign(static_cast<std::size_t>(g.num_h_edges()), 0);
  v_usage_.assign(static_cast<std::size_t>(g.num_v_edges()), 0);
  h_hist_.assign(h_usage_.size(), 0.0);
  v_hist_.assign(v_usage_.size(), 0.0);
  h_cap_.resize(h_usage_.size());
  v_cap_.resize(v_usage_.size());
  for (int y = 0; y < g.ysize(); ++y) {
    for (int x = 0; x < g.xsize() - 1; ++x) {
      h_cap_[g.h_edge_id(x, y)] = g.projected_capacity_h(x, y);
    }
  }
  for (int x = 0; x < g.xsize(); ++x) {
    for (int y = 0; y < g.ysize() - 1; ++y) {
      v_cap_[g.v_edge_id(x, y)] = g.projected_capacity_v(x, y);
    }
  }
  h_cost_.resize(h_usage_.size());
  v_cost_.resize(v_usage_.size());
  for (std::size_t i = 0; i < h_cost_.size(); ++i) h_cost_[i] = edge_cost(0, h_cap_[i], 0.0);
  for (std::size_t i = 0; i < v_cost_.size(); ++i) v_cost_[i] = edge_cost(0, v_cap_[i], 0.0);
}

void Usage2D::add(const NetRoute& r, int delta) {
  for (int id : r.h_edges) {
    h_usage_[id] += delta;
    h_cost_[id] = edge_cost(h_usage_[id], h_cap_[id], h_hist_[id]);
  }
  for (int id : r.v_edges) {
    v_usage_[id] += delta;
    v_cost_[id] = edge_cost(v_usage_[id], v_cap_[id], v_hist_[id]);
  }
}

long Usage2D::total_overflow() const {
  long sum = 0;
  for (std::size_t i = 0; i < h_usage_.size(); ++i) {
    sum += std::max(0, h_usage_[i] - h_cap_[i]);
  }
  for (std::size_t i = 0; i < v_usage_.size(); ++i) {
    sum += std::max(0, v_usage_[i] - v_cap_[i]);
  }
  return sum;
}

void Usage2D::bump_history(double amount) {
  CPLA_ASSERT_MSG(amount >= 0.0, "negative history would let an edge cost less than 1");
  for (std::size_t i = 0; i < h_usage_.size(); ++i) {
    if (h_usage_[i] <= h_cap_[i]) continue;
    h_hist_[i] += amount;
    h_cost_[i] = edge_cost(h_usage_[i], h_cap_[i], h_hist_[i]);
  }
  for (std::size_t i = 0; i < v_usage_.size(); ++i) {
    if (v_usage_[i] <= v_cap_[i]) continue;
    v_hist_[i] += amount;
    v_cost_[i] = edge_cost(v_usage_[i], v_cap_[i], v_hist_[i]);
  }
}

double Usage2D::edge_cost(int usage, int cap, double hist) {
  // PathFinder-flavored: unit base cost, plus history, plus a sharply
  // growing present-congestion term once the edge would overflow.
  double cost = 1.0 + hist;
  if (usage + 1 > cap) {
    cost += 8.0 + 4.0 * static_cast<double>(usage + 1 - cap);
  } else if (cap > 0) {
    cost += 0.5 * static_cast<double>(usage) / static_cast<double>(cap);
  }
  return cost;
}

}  // namespace cpla::route
