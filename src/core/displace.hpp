#pragma once

// Victim displacement: Problem 1 re-assigns layers "among critical and
// non-critical nets". The partition engines only move released segments;
// this pass creates the headroom they need by demoting *non-released*
// segments off (layer, edge) slots that are (a) full and (b) wanted by a
// highly-critical released segment sitting below that layer. Victim nets
// are re-assigned with the same exact tree DP used by the initial
// assigner, with the cleared slots priced as forbidden — so victims stay
// legal and their via count stays controlled.

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/timing/rc_table.hpp"

namespace cpla::core {

struct DisplaceOptions {
  double min_criticality = 0.85;  // only clear corridors of nearly-critical segments
};

/// Returns the number of victim nets re-assigned.
int make_headroom(assign::AssignState* state, const timing::RcTable& rc,
                  const CriticalSet& critical, const DisplaceOptions& options = {});

}  // namespace cpla::core
