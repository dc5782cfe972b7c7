#pragma once

// Congestion-aware maze routing: Dijkstra over the 2-D grid from a source
// set to one target cell, using Usage2D edge costs. Rip-up rerouting uses it
// to connect each pin into a net's growing component.

#include <cstdint>
#include <utility>
#include <vector>

#include "src/route/route2d.hpp"

namespace cpla::route {

/// Dijkstra from a source set to one target cell. The router keeps its
/// search storage between calls, so one router serves a whole rip-up and
/// reroute pass without per-call set-up. Not thread-safe: use one router per
/// thread.
class MazeRouter {
 public:
  /// Finds the cheapest path from any cell in `sources` to `target`; appends
  /// its unit edges to `out`. Returns false if no path exists (cannot happen
  /// on a connected grid). Cells are cell ids (GridGraph::cell_id).
  bool route(const grid::GridGraph& g, const Usage2D& usage, const std::vector<int>& sources,
             int target, NetRoute* out);

 private:
  struct Label {
    double dist = 0.0;
    int prev = -1;
    std::uint32_t stamp = 0;  // current iff stamp == stamp_
  };
  using Item = std::pair<double, int>;  // (dist, state): the heap's key order

  std::vector<Label> labels_;
  std::vector<std::vector<Item>> buckets_;  // bucket k holds dist in [k, k + 1)
  std::uint32_t stamp_ = 0;
};

}  // namespace cpla::route
