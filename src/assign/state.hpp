#pragma once

// Mutable layer-assignment state for a whole design: per-net per-segment
// layer choices plus incrementally-maintained resource usage
//   * wire usage per (layer, directional edge)        -> constraint (4c)
//   * via usage per (layer, cell), intermediate layers -> constraint (4d)
//   * track usage per (layer, cell): wires crossing the cell, which consume
//     nv via sites each (the nv*(x_ij+x_pq) term of (4d))
// and the paper's reported metrics (wire overflow, via overflow OV#, via
// count). The overflow totals are running sums kept exact by every usage
// update (apply_segment, apply_stack), so reading them is O(1).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/grid/design.hpp"
#include "src/route/seg_tree.hpp"
#include "src/util/check.hpp"

namespace cpla::assign {

class AssignState {
 public:
  AssignState(const grid::Design* design, std::vector<route::SegTree> trees);

  const grid::Design& design() const { return *design_; }
  int num_nets() const { return static_cast<int>(trees_.size()); }
  const route::SegTree& tree(int net) const { return trees_[net]; }

  bool assigned(int net) const { return !layers_[net].empty() || trees_[net].segs.empty(); }
  const std::vector<int>& layers(int net) const { return layers_[net]; }

  /// Replaces a net's assignment; usage is updated incrementally: for an
  /// assigned net, only the segments whose layer changes and the via stacks
  /// at their ends. Layer directions must match segment directions. The
  /// layers are copied into storage the net already holds, so re-assigning
  /// an assigned net allocates nothing.
  void set_layers(int net, const std::vector<int>& layers);

  /// Removes a net from the usage maps (leaves it unassigned).
  void clear_net(int net);

  // --- ECO mutators (src/eco) ------------------------------------------
  // Net ids are stable across all of these: remove_net leaves an empty
  // placeholder tree behind instead of compacting the vector.

  /// Replaces a net's routing tree (an ECO reroute): clears the old usage,
  /// swaps the tree, and assigns `layers` (empty = default_layers).
  void replace_tree(int net, route::SegTree tree, std::vector<int> layers = {});

  /// Appends a brand-new net with its own tree and returns its id.
  int add_net(route::SegTree tree, std::vector<int> layers = {});

  /// Clears a net's usage and replaces its tree with an empty one. The id
  /// stays valid (assigned() reports true for the empty placeholder).
  void remove_net(int net);

  /// The deterministic default assignment for a tree: the lowest allowed
  /// layer of each segment's direction.
  std::vector<int> default_layers(const route::SegTree& tree) const;

  // --- Usage queries --------------------------------------------------
  int wire_usage(int layer, int edge) const { return wire_usage_[layer][edge]; }
  int wire_cap(int layer, int edge) const { return design_->grid.edge_capacity(layer, edge); }
  int via_usage(int layer, int cell) const { return via_usage_[layer][cell]; }
  int track_usage(int layer, int cell) const { return track_usage_[layer][cell]; }
  int via_cap(int layer, int cell) const { return via_cap_[layer][cell]; }
  int nv() const { return nv_; }
  const int* wire_usage_row(int l) const { return wire_usage_[l].data(); }
  const int* via_usage_row(int l) const { return via_usage_[l].data(); }
  const int* track_usage_row(int l) const { return track_usage_[l].data(); }
  const int* via_cap_row(int l) const { return via_cap_[l].data(); }

  /// Via-site load of constraint (4d): via_usage + nv * track_usage.
  int via_load(int layer, int cell) const {
    return via_usage_[layer][cell] + nv_ * track_usage_[layer][cell];
  }

  // --- Metrics (Table 2 columns) ---------------------------------------
  /// Sum over (layer, edge) of max(0, usage - cap). O(1) while the grid's
  /// capacities are unchanged since the last usage update; after an
  /// external capacity write it recounts without caching (the next
  /// usage update resyncs the running total).
  long wire_overflow() const {
    return wire_stamp_ == design_->grid.capacity_stamp() ? wire_overflow_
                                                         : scan_wire_overflow();
  }
  /// OV#: sum over (layer, cell) of max(0, via_load - via_cap), against
  /// the construction-time via capacities.
  long via_overflow() const { return via_overflow_; }
  long via_count() const { return via_count_; }

  /// Allowed layers for a segment (matching preferred direction).
  const std::vector<int>& allowed_layers(bool horizontal) const {
    return horizontal ? h_layers_ : v_layers_;
  }

  /// Enumerates the directional edge ids covered by segment `s` of `net`:
  /// fn(edge).
  template <typename Fn>
  void for_each_edge(int net, int seg, Fn&& fn) const {
    const auto& g = design_->grid;
    const route::Segment& s = trees_[net].segs[seg];
    if (s.horizontal) {
      const int y = s.a.y;
      for (int x = std::min(s.a.x, s.b.x); x < std::max(s.a.x, s.b.x); ++x) {
        fn(g.h_edge_id(x, y));
      }
    } else {
      const int x = s.a.x;
      for (int y = std::min(s.a.y, s.b.y); y < std::max(s.a.y, s.b.y); ++y) {
        fn(g.v_edge_id(x, y));
      }
    }
  }

  /// Enumerates the cells covered by the segment (inclusive of endpoints):
  /// fn(cell).
  template <typename Fn>
  void for_each_cell(int net, int seg, Fn&& fn) const {
    const auto& g = design_->grid;
    const route::Segment& s = trees_[net].segs[seg];
    if (s.horizontal) {
      const int y = s.a.y;
      for (int x = std::min(s.a.x, s.b.x); x <= std::max(s.a.x, s.b.x); ++x) {
        fn(g.cell_id(x, y));
      }
    } else {
      const int x = s.a.x;
      for (int y = std::min(s.a.y, s.b.y); y <= std::max(s.a.y, s.b.y); ++y) {
        fn(g.cell_id(x, y));
      }
    }
  }

  /// Enumerates every via stack of a net under an assignment: fn(x, y,
  /// lower_layer, upper_layer). Includes source and sink pin vias.
  template <typename Fn>
  void for_each_via(int net, const std::vector<int>& layers, Fn&& fn) const {
    const route::SegTree& tree = trees_[net];
    CPLA_ASSERT(layers.size() == tree.segs.size());
    for (const route::Segment& s : tree.segs) {
      const Stack st = segment_stack(tree, s, layers);
      if (st.lo != st.hi) fn(st.x, st.y, st.lo, st.hi);
    }
    for (const route::SinkAttach& sink : tree.sinks) {
      if (sink.seg_id < 0) continue;  // same cell as the driver: no wire via
      const Stack st = sink_stack(tree, sink, layers);
      if (st.lo != st.hi) fn(st.x, st.y, st.lo, st.hi);
    }
  }

 private:
  /// A via stack from layer `lo` to `hi` at cell (x, y).
  struct Stack {
    int x, y, lo, hi;
  };
  /// The stack at segment s's near end: from its parent's layer (the
  /// source pin's for a root segment) to its own.
  static Stack segment_stack(const route::SegTree& tree, const route::Segment& s,
                             const std::vector<int>& layers) {
    const int from = s.parent < 0 ? tree.root_pin_layer : layers[s.parent];
    return {s.a.x, s.a.y, std::min(from, layers[s.id]), std::max(from, layers[s.id])};
  }
  /// The stack from a sink's pin to its segment's layer, at the far end.
  static Stack sink_stack(const route::SegTree& tree, const route::SinkAttach& sink,
                          const std::vector<int>& layers) {
    const route::Segment& s = tree.segs[sink.seg_id];
    const int l = layers[sink.seg_id];
    return {s.b.x, s.b.y, std::min(sink.pin_layer, l), std::max(sink.pin_layer, l)};
  }

  /// Adds `delta` (+1/-1) of net's wires, tracks and vias to the usage maps
  /// and moves the overflow totals by each touched slot's change in
  /// max(0, usage - cap).
  void apply_net(int net, int delta);
  /// apply_net's pieces, the only places usage changes: one segment's
  /// wires and tracks on layer `l`, and one via stack.
  void apply_segment(int net, int seg, int l, int delta);
  void apply_stack(const Stack& stack, int delta);
  /// Recounts the running wire total after a capacity write.
  void sync_wire_total();

  /// The wire total recounted over every (layer, edge) at the grid's
  /// current capacities.
  long scan_wire_overflow() const;

  const grid::Design* design_;
  std::vector<route::SegTree> trees_;
  std::vector<std::vector<int>> layers_;       // [net][seg]
  std::vector<std::vector<int>> wire_usage_;   // [layer][edge]
  std::vector<std::vector<int>> via_usage_;    // [layer][cell]
  std::vector<std::vector<int>> track_usage_;  // [layer][cell]
  std::vector<std::vector<int>> via_cap_;      // [layer][cell], static
  std::vector<int> h_layers_, v_layers_;
  long via_count_ = 0;
  long wire_overflow_ = 0;  // valid while wire_stamp_ matches the grid
  long via_overflow_ = 0;  // capacities are >= 0, so no load means no overflow
  std::uint64_t wire_stamp_ = 0;  // never a grid's stamp: first update counts
  int nv_ = 1;
};

}  // namespace cpla::assign
