#pragma once

// 3-D routing grid model (Section 2.1 of the paper).
//
// Each metal layer carries unidirectional wires (alternating horizontal /
// vertical preferred direction). The chip is tiled into xsize*ysize
// rectangular GCells; x/y edges between adjacent cells carry wires with a
// per-layer capacity, and z-direction connections (vias) pass *through* a
// cell on each intermediate layer, limited by the via capacity of Eqn (1):
//
//   cap_g(l) = floor( (ww+ws) * TileW * (cap_e0(l)+cap_e1(l)) / (vw+vs)^2 )
//
// where e0/e1 are the two layer-l edges incident to the cell.

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/check.hpp"

namespace cpla::grid {

struct XY {
  int x = 0;
  int y = 0;
  friend bool operator==(const XY&, const XY&) = default;
};

/// Per-layer electrical and direction data. Resistance/capacitance are per
/// tile of wirelength (industrial-style scaling: higher layers are wider,
/// so lower R and lower C).
struct Layer {
  std::string name;
  bool horizontal = true;  // preferred routing direction
  double unit_res = 1.0;   // ohms per tile
  double unit_cap = 1.0;   // farads per tile (scaled units)
  double via_res_up = 1.0; // resistance of a via from this layer to the next
};

/// Geometry used by the via-capacity model, Eqn (1).
struct GeomParams {
  double wire_width = 1.0;
  double wire_spacing = 1.0;
  double via_width = 1.0;
  double via_spacing = 1.0;
  double tile_width = 10.0;

  /// Vias that fit on one routing track crossing one tile: the nv of
  /// constraint (4d).
  int vias_per_track() const {
    return static_cast<int>((wire_width + wire_spacing) * tile_width /
                            ((via_width + via_spacing) * (via_width + via_spacing)));
  }
};

class GridGraph {
 public:
  GridGraph(int xsize, int ysize, std::vector<Layer> layers, GeomParams geom);

  int xsize() const { return xsize_; }
  int ysize() const { return ysize_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  int num_cells() const { return xsize_ * ysize_; }
  const Layer& layer(int l) const { return layers_[l]; }
  const GeomParams& geom() const { return geom_; }
  bool is_horizontal(int l) const { return layers_[l].horizontal; }

  int cell_id(int x, int y) const {
    CPLA_ASSERT(x >= 0 && x < xsize_ && y >= 0 && y < ysize_);
    return y * xsize_ + x;
  }

  // --- Directional edge indexing -------------------------------------
  // Horizontal edge (x,y)-(x+1,y): id in [0, num_h_edges).
  // Vertical edge (x,y)-(x,y+1):   id in [0, num_v_edges).
  int num_h_edges() const { return (xsize_ - 1) * ysize_; }
  int num_v_edges() const { return xsize_ * (ysize_ - 1); }

  int h_edge_id(int x, int y) const {
    CPLA_ASSERT(x >= 0 && x < xsize_ - 1 && y >= 0 && y < ysize_);
    return y * (xsize_ - 1) + x;
  }
  int v_edge_id(int x, int y) const {
    CPLA_ASSERT(x >= 0 && x < xsize_ && y >= 0 && y < ysize_ - 1);
    return x * (ysize_ - 1) + y;
  }

  /// Number of directional edges on layer l (0 if the layer runs the other
  /// way).
  int num_edges_on_layer(int l) const {
    return is_horizontal(l) ? num_h_edges() : num_v_edges();
  }

  /// Wire capacity of directional edge `e` on layer `l` (e is an h-edge id
  /// for horizontal layers, v-edge id for vertical layers).
  int edge_capacity(int l, int e) const { return cap_[l][e]; }
  const int* capacity_row(int l) const { return cap_[l].data(); }
  void set_edge_capacity(int l, int e, int cap);

  /// Sets every edge of layer l to `cap` (>= 0).
  void fill_layer_capacity(int l, int cap);

  /// Version of the wire capacities: construction and every capacity write
  /// draw a fresh process-wide value, so two grids (or one grid at two
  /// points in time) share a stamp only if one is an unmodified copy of the other.
  /// Lets holders of capacity-derived totals detect a stale cache.
  std::uint64_t capacity_stamp() const { return capacity_stamp_; }

  /// Via capacity of cell (x,y) on layer l, per Eqn (1); computed from the
  /// static edge capacities.
  int via_capacity(int l, int x, int y) const;

  /// Total wire capacity of the 2-D edge between cells a and b (adjacent),
  /// summed over layers of the matching direction. Used by the 2-D router.
  int projected_capacity_h(int x, int y) const;
  int projected_capacity_v(int x, int y) const;

 private:
  int xsize_;
  int ysize_;
  std::vector<Layer> layers_;
  GeomParams geom_;
  std::vector<std::vector<int>> cap_;  // [layer][directional edge id]
  std::uint64_t capacity_stamp_;
};

}  // namespace cpla::grid
