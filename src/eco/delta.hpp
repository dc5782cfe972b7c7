#pragma once

// Typed design deltas for the incremental ECO engine. An EcoSession (or a
// test mirroring one) applies a stream of these to an AssignState + Design
// + CriticalSet triple. Deltas carry no region bookkeeping: which cached
// partition solutions stay valid is decided by the content-addressed cache
// key alone (see solution_cache.hpp).

#include <vector>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/grid/design.hpp"
#include "src/route/seg_tree.hpp"
#include "src/util/status.hpp"

namespace cpla::eco {

enum class DeltaKind : int {
  kNetRerouted,         // a net's 2-D routing tree changed
  kCriticalityChanged,  // a net entered/left the released (critical) set
  kCapacityAdjusted,    // one directional edge's wire capacity changed
  kNetAdded,            // a brand-new net appeared
  kNetRemoved,          // a net was deleted (its id stays a valid empty slot)
};

const char* to_string(DeltaKind kind);

struct Delta {
  DeltaKind kind = DeltaKind::kNetRerouted;
  int net = -1;             // reroute / criticality / remove target
  route::SegTree tree;      // reroute / add payload
  std::vector<int> layers;  // optional explicit assignment (empty = default)
  bool released = true;     // criticality payload: promote or demote
  int layer = -1;           // capacity payload: metal layer
  int x = 0, y = 0;         // capacity payload: edge origin cell
  int cap = 0;              // capacity payload: new edge capacity

  static Delta net_rerouted(int net, route::SegTree tree, std::vector<int> layers = {});
  static Delta criticality_changed(int net, bool released);
  /// The directional edge starting at (x,y) on `layer` (horizontal layers:
  /// edge (x,y)-(x+1,y); vertical: (x,y)-(x,y+1)) gets capacity `cap`.
  static Delta capacity_adjusted(int layer, int x, int y, int cap);
  static Delta net_added(route::SegTree tree, std::vector<int> layers = {});
  static Delta net_removed(int net);
};

/// Structural sanity of a tree from outside the flow (an ECO delta, a
/// journal record, a checkpoint): segment ids dense, every parent earlier
/// in the list and every child list the exact inverse of the parents,
/// segments axis-aligned and inside the grid, the root and every sink
/// attach inside the grid and the layer stack, and `layers` (if not empty)
/// one direction-legal layer per segment. kBadInput on the first violation;
/// a tree that passes is safe to hand to AssignState and the timers.
Status validate_tree(const grid::GridGraph& g, const route::SegTree& tree,
                     const std::vector<int>& layers);

/// Applies one delta to a design/state/critical-set triple — the single
/// shared implementation used by EcoSession::apply and by equivalence
/// tests mirroring a session onto a control state. Returns the id of the
/// affected net (the new id for kNetAdded, -1 for kCapacityAdjusted), or a
/// kBadInput status for out-of-range targets. On failure nothing was
/// mutated.
Result<int> apply_delta(const Delta& delta, grid::Design* design, assign::AssignState* state,
                        core::CriticalSet* critical);

}  // namespace cpla::eco
