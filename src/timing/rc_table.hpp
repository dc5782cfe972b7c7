#pragma once

// Per-layer RC data consumed by the Elmore engine. Derived from the grid's
// layer stack; pin capacitance and driver resistance are the "industrial
// settings" knobs the paper mentions (Section 4).

#include <vector>

#include "src/grid/grid_graph.hpp"
#include "src/util/check.hpp"

namespace cpla::timing {

class RcTable {
 public:
  /// Builds from a grid's layer stack.
  explicit RcTable(const grid::GridGraph& g);

  int num_layers() const { return static_cast<int>(res_.size()); }

  /// Wire resistance of one tile of wire on layer l.
  double res(int l) const { return res_[l]; }

  /// Wire capacitance of one tile of wire on layer l.
  double cap(int l) const { return cap_[l]; }

  /// Resistance of a single via between layers l and l+1.
  double via_res(int l) const { return via_res_[l]; }

  /// Total resistance of a via stack between layers `from` and `to`: the
  /// via resistances summed upward from the lower layer, kept in a table
  /// (every Elmore evaluation and model build reads it per segment).
  double via_stack_res(int from, int to) const {
    CPLA_ASSERT(from >= 0 && from < num_layers() && to >= 0 && to < num_layers());
    return stack_res_[static_cast<std::size_t>(from) * res_.size() + static_cast<std::size_t>(to)];
  }

  /// Scales every wire and via resistance (testing and what-if analysis).
  void scale_resistance(double factor);

  /// Scales every wire capacitance (RC-corner derivation; the sink pin cap
  /// is a separate knob — see set_sink_cap).
  void scale_capacitance(double factor);

  double sink_cap() const { return sink_cap_; }
  double driver_res() const { return driver_res_; }
  void set_sink_cap(double c) { sink_cap_ = c; }
  void set_driver_res(double r) { driver_res_ = r; }

 private:
  /// Refills stack_res_ from via_res_.
  void sum_stacks();

  std::vector<double> res_, cap_, via_res_;
  std::vector<double> stack_res_;  // [from][to]
  double sink_cap_ = 3.0;
  double driver_res_ = 12.0;
};

}  // namespace cpla::timing
