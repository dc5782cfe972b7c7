#pragma once

// Critical-net selection: the paper releases the top `ratio` fraction of
// nets by critical-path (worst sink) Elmore delay for incremental
// reassignment; everything else stays fixed.

#include <vector>

#include "src/assign/state.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/timing/elmore.hpp"

namespace cpla::core {

struct CriticalSet {
  std::vector<int> nets;  // released net ids, worst delay first
  std::vector<char> released;  // indexed by net id
};

/// Selects ceil(ratio * #nets) critical nets (nets without segments are
/// never selected — they carry no assignable wire).
CriticalSet select_critical(const assign::AssignState& state, const timing::RcTable& rc,
                            double ratio);

/// Slack-based selection: releases every net whose critical-path delay
/// exceeds `required_time` (negative slack), worst first. This is how a
/// timing-closure flow would feed CPLA from an STA report instead of a
/// fixed release ratio.
CriticalSet select_by_budget(const assign::AssignState& state, const timing::RcTable& rc,
                             double required_time);

/// TimingGraph-backed selection: releases the ceil(ratio * #nets) nets
/// with the worst (smallest) slack in the graph — the worst-over-corners
/// merge, so a net critical at any corner competes for release. Nets
/// without segments, or absent from the graph, are never selected. Ties
/// break toward the smaller net id.
CriticalSet select_critical(const assign::AssignState& state, const sta::TimingGraph& graph,
                            double ratio);

}  // namespace cpla::core
