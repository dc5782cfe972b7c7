#pragma once

// Elmore delay over a net's segment tree under a given layer assignment
// (Section 2.2 of the paper).
//
//   segment delay  ts(i,l) = R(l)*len * ( C(l)*len/2 + Cd(i) )      (Eqn 2)
//   via delay      tv      = sum Rv(l) * min(Cd(i), Cd(p))          (Eqn 3)
//
// Cd(i) is the capacitance strictly downstream of segment i (children's
// wire cap + their downstream + sink pin caps at i's far end), computed
// sinks-to-source. Source/sink pin vias (layer 0 up to the wire layer) are
// also modeled; a source via drives the whole net, a sink via only its pin.

#include <span>
#include <vector>

#include "src/route/seg_tree.hpp"
#include "src/timing/rc_table.hpp"

namespace cpla::timing {

struct NetTiming {
  // Per-segment data, indexed by segment id.
  std::vector<double> downstream_cap;  // Cd(i)
  std::vector<double> arrival;         // Elmore delay root -> far end of seg

  // Per-sink data, parallel to SegTree::sinks.
  std::vector<double> sink_delay;

  double total_cap = 0.0;      // everything the driver sees
  double max_sink_delay = 0.0; // the net's critical-path delay Tcp
  int critical_sink = -1;      // index into SegTree::sinks, -1 if no sinks

  /// True for segments on the root->critical-sink path.
  std::vector<bool> on_critical_path;

  /// Per-segment criticality in [0, 1]: the worst sink delay reachable
  /// through the segment's subtree, divided by the net's critical-path
  /// delay. 1.0 on the critical path; near 1.0 on almost-critical branches
  /// (nets can have "one or several timing critical paths").
  std::vector<double> criticality;
};

/// What the delay kernel reports besides its per-segment and per-sink
/// arrays.
struct ElmoreSummary {
  double total_cap = 0.0;
  double max_sink_delay = 0.0;
  int critical_sink = -1;
};

/// The delay-only Elmore kernel every timing entry point runs on: fills
/// `downstream_cap` and `arrival` (one entry per segment) and `sink_delay`
/// (one per sink), overwriting them, and allocates nothing. Counted as one
/// `timing.elmore.evals`.
ElmoreSummary elmore_delays(const route::SegTree& tree, const std::vector<int>& layers,
                            const RcTable& rc, std::span<double> downstream_cap,
                            std::span<double> arrival, std::span<double> sink_delay);

/// Computes timing for one net. `layers[s]` is the metal layer of segment s.
NetTiming compute_timing(const route::SegTree& tree, const std::vector<int>& layers,
                         const RcTable& rc);

/// Just the worst-sink delay (convenience for selection loops): the
/// kernel on per-thread scratch, bit for bit compute_timing's
/// max_sink_delay.
double critical_delay(const route::SegTree& tree, const std::vector<int>& layers,
                      const RcTable& rc);

}  // namespace cpla::timing
