#pragma once

// Test oracle for maze routing: the plain binary-heap Dijkstra that
// route::MazeRouter replaced, kept verbatim in its search order so the
// production router can be checked route for route against it. Edge costs
// are recomputed here from usage, capacity and history with the same
// formula as Usage2D, so a stale cost cache in Usage2D shows up as a
// mismatch instead of being read by both sides.

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "src/route/route2d.hpp"

namespace cpla::route::oracle {

inline double edge_cost(int usage, int cap, double hist) {
  double cost = 1.0 + hist;
  if (usage + 1 > cap) {
    cost += 8.0 + 4.0 * static_cast<double>(usage + 1 - cap);
  } else if (cap > 0) {
    cost += 0.5 * static_cast<double>(usage) / static_cast<double>(cap);
  }
  return cost;
}

/// Cheapest path from any cell in `sources` to any cell in `targets`
/// (Dijkstra over (cell, incoming direction) states, bend penalty 1.5);
/// appends its unit edges to `out`. Returns false if no path exists.
inline bool heap_maze_route(const grid::GridGraph& g, const Usage2D& usage,
                            const std::vector<int>& sources, const std::vector<int>& targets,
                            NetRoute* out) {
  constexpr double kBendPenalty = 1.5;
  constexpr int kDirH = 0;
  constexpr int kDirV = 1;
  constexpr int kDirNone = 2;
  const int xs = g.xsize();
  const int ys = g.ysize();
  const int num_states = xs * ys * 3;

  std::vector<double> dist(static_cast<std::size_t>(num_states),
                           std::numeric_limits<double>::infinity());
  std::vector<int> prev(static_cast<std::size_t>(num_states), -1);
  std::vector<char> is_target(static_cast<std::size_t>(xs * ys), 0);
  for (int t : targets) is_target[t] = 1;

  auto state_id = [&](int cell, int dir) { return cell * 3 + dir; };
  auto h_cost = [&](int id) {
    return edge_cost(usage.h_usage(id), usage.h_cap(id), usage.h_history(id));
  };
  auto v_cost = [&](int id) {
    return edge_cost(usage.v_usage(id), usage.v_cap(id), usage.v_history(id));
  };

  using Item = std::pair<double, int>;  // (dist, state)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (int s : sources) {
    const int st = state_id(s, kDirNone);
    dist[st] = 0.0;
    heap.push({0.0, st});
  }

  int goal_state = -1;
  while (!heap.empty()) {
    const auto [d, st] = heap.top();
    heap.pop();
    if (d > dist[st]) continue;
    const int cell = st / 3;
    const int dir = st % 3;
    if (is_target[cell]) {
      goal_state = st;
      break;
    }
    const int x = cell % xs;
    const int y = cell / xs;

    auto relax = [&](int nx, int ny, int ndir, double cost) {
      const double bend = (dir != kDirNone && dir != ndir) ? kBendPenalty : 0.0;
      const int ncell = ny * xs + nx;
      const int nst = state_id(ncell, ndir);
      const double nd = d + cost + bend;
      if (nd < dist[nst]) {
        dist[nst] = nd;
        prev[nst] = st;
        heap.push({nd, nst});
      }
    };
    if (x > 0) relax(x - 1, y, kDirH, h_cost(g.h_edge_id(x - 1, y)));
    if (x < xs - 1) relax(x + 1, y, kDirH, h_cost(g.h_edge_id(x, y)));
    if (y > 0) relax(x, y - 1, kDirV, v_cost(g.v_edge_id(x, y - 1)));
    if (y < ys - 1) relax(x, y + 1, kDirV, v_cost(g.v_edge_id(x, y)));
  }
  if (goal_state < 0) return false;

  int st = goal_state;
  while (prev[st] >= 0) {
    const int p = prev[st];
    const int cell = st / 3;
    const int pcell = p / 3;
    const int cx = cell % xs, cy = cell / xs;
    const int px = pcell % xs, py = pcell / xs;
    if (cy == py) {
      out->add_h(g.h_edge_id(std::min(cx, px), cy));
    } else {
      out->add_v(g.v_edge_id(cx, std::min(cy, py)));
    }
    st = p;
  }
  return true;
}

}  // namespace cpla::route::oracle
