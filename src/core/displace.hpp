#pragma once

// Victim displacement: Problem 1 re-assigns layers "among critical and
// non-critical nets". The partition engines only move released segments;
// this pass creates the headroom they need by demoting *non-released*
// segments off (layer, edge) slots that are (a) full and (b) wanted by a
// highly-critical released segment sitting below that layer. Victim nets
// are re-assigned with the same exact tree DP used by the initial
// assigner, with the cleared slots priced as forbidden — so victims stay
// legal and their via count stays controlled.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/core/model.hpp"

namespace cpla::core {

struct DisplaceOptions {
  double min_criticality = 0.85;  // only clear corridors of nearly-critical segments
};

/// The nets victim displacement may move: every net of wire length at most
/// 40 (demoting a long net would create a new timing problem), with its
/// segments bucketed by line — the row of a horizontal segment, the column
/// of a vertical one — so a round's victim scan reads only the lines that
/// hold a wanted slot. Trees do not change inside a flow, so run_cpla
/// builds the index once per optimize; layers are read live at scan time.
class VictimIndex {
 public:
  struct Entry {
    int net;
    int seg;
    int first;   // smallest position along the line (x of a row, y of a column)
    int length;  // unit edges
  };

  explicit VictimIndex(const assign::AssignState& state);

  /// The short nets' segments on one line, in (net, segment) order.
  std::span<const Entry> line(bool horizontal, int line) const {
    const std::size_t key = key_of(horizontal, line);
    return {entries_.data() + line_begin_[key],
            static_cast<std::size_t>(line_begin_[key + 1] - line_begin_[key])};
  }

 private:
  std::size_t key_of(bool horizontal, int line) const {
    return static_cast<std::size_t>(horizontal ? 0 : lines_) + static_cast<std::size_t>(line);
  }

  int lines_ = 0;                 // max(xsize, ysize)
  std::vector<int> line_begin_;   // CSR over key_of, size 2 * lines_ + 1
  std::vector<Entry> entries_;
};

/// The net-DP costs of one victim trial: wanted slots are forbidden, wire
/// and via-site overflow are near-forbidden, and vias cost their layer
/// span. `wanted` is a dense (layer, edge) byte map with `stride` edges
/// per layer.
///
/// The victim is priced in place: it stays applied at its current layers,
/// and every usage read subtracts the victim's own share, so the costs are
/// exactly those of the victim cleared from the usage maps. That is exact
/// integer arithmetic because a net's segments share no unit edge and
/// share cells only at segment ends (segments break at turns, branch
/// points and pins): a segment's own edges carry one track of the victim
/// on its current layer, its interior cells nv via sites on that layer,
/// and its end cells whatever begin()'s per-trial table records.
class HeadroomCosts {
 public:
  HeadroomCosts(const assign::AssignState& state, const std::vector<unsigned char>& wanted,
                std::size_t stride);

  /// Prices `net`, which must be assigned: records its layers, its
  /// segments' edge and cell ranges, its own via-site load at every segment
  /// end cell, and the over-capacity via-site layers at each child
  /// segment's junction cell.
  void begin(int net);

  double seg(int s, int l) const;

  /// Whether moving the net begin() priced from its current layers to
  /// `fresh` would raise the design's wire or via overflow total. Reads
  /// the usage maps only: the exact change of every touched slot's
  /// max(0, load - cap), summed.
  bool adds_overflow(const std::vector<int>& fresh);
  double root_via(int l) const {
    return static_cast<double>(std::abs(l - tree_->root_pin_layer));
  }
  /// |lp - lc| plus a 1e4 penalty per intermediate layer whose via sites
  /// are full at the child's junction, read from begin()'s prefix counts.
  /// Whole numbers far below 2^53 throughout, so the one product equals a
  /// per-layer sum of 1e4 exactly.
  double via(int c, int lp, int lc) const {
    const int lo = std::min(lp, lc) + 1;
    const int hi = std::max(lp, lc);
    const int* counts = full_below_.data() +
                        static_cast<std::size_t>(c) * (static_cast<std::size_t>(num_layers_) + 1);
    const int full = hi > lo ? counts[hi] - counts[lo] : 0;
    return std::abs(lp - lc) + 1e4 * full;
  }

 private:
  // One segment's footprint: edge ids first_edge.. (ascending, contiguous
  // on either axis), cell ids first_cell + i * cell_step for i in
  // [0, length], and the own_ rows of its first and last cell.
  struct Span {
    int first_edge, first_cell, cell_step, length;
    int first_end, last_end;
    int layer;  // the victim's current layer
    int sinks_begin, sinks_end;  // pin layers of the sinks at its far end
  };

  /// Fills `own` with the via-site load the net puts on every (end cell,
  /// layer) under `layers`: its tracks, its segment via stacks and its sink
  /// via stacks.
  void end_loads(const std::vector<int>& layers, std::vector<int>* own) const;

  const assign::AssignState& state_;
  const std::vector<unsigned char>& wanted_;
  std::size_t stride_;
  int num_layers_;
  const route::SegTree* tree_ = nullptr;
  const std::vector<int>* layers_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> sink_layers_;  // in SegTree::sinks order, grouped by segment
  // Segment end cells by row: row 0 is the root cell, row s + 1 segment
  // s's far end. A segment's near end is its parent's far end (or the
  // root), and far ends are distinct cells, so these are all of them.
  std::vector<int> end_cells_;
  // own_[row * num_layers_ + l]: the via-site load the victim puts on
  // layer l at end cell `row` at its current layers; fresh_own_ the same
  // under adds_overflow()'s move.
  std::vector<int> own_;
  std::vector<int> fresh_own_;
  // full_below_[c * (num_layers_ + 1) + l]: layers below l whose via sites
  // at segment c's junction cell cannot take one more via.
  std::vector<int> full_below_;
};

/// Returns the number of victim nets re-assigned. `timing` is the round's
/// frozen timing of `critical`'s nets (freeze_timing): victims are never
/// released, so the pass leaves those nets' layers, hence their timing, as
/// they are. `victims` indexes `state`'s trees.
int make_headroom(assign::AssignState* state, const CriticalSet& critical,
                  const RoundTiming& timing, const VictimIndex& victims,
                  const DisplaceOptions& options = {});

}  // namespace cpla::core
