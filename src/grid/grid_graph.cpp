#include "src/grid/grid_graph.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>

namespace cpla::grid {

namespace {

std::uint64_t next_capacity_stamp() {
  static std::atomic<std::uint64_t> next{1};  // 0 stays free: a never-valid stamp
  return next.fetch_add(1);
}

/// Edge capacities are ints up to INT_MAX, so their sums run in 64 bits and
/// saturate at the int range instead of overflowing.
int clamp_to_int(long long v) { return static_cast<int>(std::min<long long>(v, INT_MAX)); }

}  // namespace

GridGraph::GridGraph(int xsize, int ysize, std::vector<Layer> layers, GeomParams geom)
    : xsize_(xsize),
      ysize_(ysize),
      layers_(std::move(layers)),
      geom_(geom),
      capacity_stamp_(next_capacity_stamp()) {
  CPLA_ASSERT(xsize_ >= 2 && ysize_ >= 2);
  CPLA_ASSERT(!layers_.empty());
  cap_.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    cap_[l].assign(static_cast<std::size_t>(num_edges_on_layer(static_cast<int>(l))), 0);
  }
}

void GridGraph::set_edge_capacity(int l, int e, int cap) {
  CPLA_ASSERT(l >= 0 && l < num_layers());
  CPLA_ASSERT(e >= 0 && e < num_edges_on_layer(l));
  CPLA_ASSERT(cap >= 0);
  cap_[l][e] = cap;
  capacity_stamp_ = next_capacity_stamp();
}

void GridGraph::fill_layer_capacity(int l, int cap) {
  CPLA_ASSERT(cap >= 0);
  for (int e = 0; e < num_edges_on_layer(l); ++e) cap_[l][e] = cap;
  capacity_stamp_ = next_capacity_stamp();
}

int GridGraph::via_capacity(int l, int x, int y) const {
  CPLA_ASSERT(l >= 0 && l < num_layers());
  // The two layer-l edges incident to cell (x,y) along the preferred
  // direction; a boundary cell has only one.
  long long cap0 = 0, cap1 = 0;
  if (is_horizontal(l)) {
    if (x > 0) cap0 = edge_capacity(l, h_edge_id(x - 1, y));
    if (x < xsize_ - 1) cap1 = edge_capacity(l, h_edge_id(x, y));
  } else {
    if (y > 0) cap0 = edge_capacity(l, v_edge_id(x, y - 1));
    if (y < ysize_ - 1) cap1 = edge_capacity(l, v_edge_id(x, y));
  }
  const double num = (geom_.wire_width + geom_.wire_spacing) * geom_.tile_width *
                     static_cast<double>(cap0 + cap1);
  const double den = (geom_.via_width + geom_.via_spacing) * (geom_.via_width + geom_.via_spacing);
  return static_cast<int>(std::min(std::floor(num / den), static_cast<double>(INT_MAX)));
}

int GridGraph::projected_capacity_h(int x, int y) const {
  long long sum = 0;
  for (int l = 0; l < num_layers(); ++l) {
    if (is_horizontal(l)) sum += edge_capacity(l, h_edge_id(x, y));
  }
  return clamp_to_int(sum);
}

int GridGraph::projected_capacity_v(int x, int y) const {
  long long sum = 0;
  for (int l = 0; l < num_layers(); ++l) {
    if (!is_horizontal(l)) sum += edge_capacity(l, v_edge_id(x, y));
  }
  return clamp_to_int(sum);
}

}  // namespace cpla::grid
