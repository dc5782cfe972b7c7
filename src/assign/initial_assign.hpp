#pragma once

// Initial layer assignment: congestion-aware net-by-net DP in the style of
// the via-minimization assigners the paper builds on [5,6]. Nets are
// processed in descending wirelength order; each net's tree DP minimizes
//   wire congestion + via count + via-site congestion + a mild low-layer
//   bias (keeps high layers free for the timing-driven incremental pass).
// Produces the "initial layer assignment" input of Problem 1 (CPLA).

#include "src/assign/state.hpp"

namespace cpla::assign {

/// Assigns every net in `state` (replacing any existing assignment).
void initial_assign(AssignState* state);

}  // namespace cpla::assign
