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
#include <vector>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/core/model.hpp"

namespace cpla::core {

struct DisplaceOptions {
  double min_criticality = 0.85;  // only clear corridors of nearly-critical segments
};

/// The net-DP costs of one victim trial: wanted slots are forbidden, wire
/// and via-site overflow are near-forbidden, and vias cost their layer
/// span. `wanted` is a dense (layer, edge) byte map with `stride` edges
/// per layer.
class HeadroomCosts {
 public:
  HeadroomCosts(const assign::AssignState& state, const std::vector<unsigned char>& wanted,
                std::size_t stride);

  /// Prices `net`, which must be cleared from the usage maps: counts the
  /// over-capacity via-site layers at each child segment's junction cell.
  void begin(int net);

  double seg(int s, int l) const;
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
  const assign::AssignState& state_;
  const std::vector<unsigned char>& wanted_;
  std::size_t stride_;
  int num_layers_;
  int net_ = -1;
  const route::SegTree* tree_ = nullptr;
  // full_below_[c * (num_layers_ + 1) + l]: layers below l whose via sites
  // at segment c's junction cell cannot take one more via.
  std::vector<int> full_below_;
};

/// Returns the number of victim nets re-assigned. `timing` is the round's
/// frozen timing of `critical`'s nets (freeze_timing): victims are never
/// released, so the pass leaves those nets' layers, hence their timing, as
/// they are.
int make_headroom(assign::AssignState* state, const CriticalSet& critical,
                  const RoundTiming& timing, const DisplaceOptions& options = {});

}  // namespace cpla::core
