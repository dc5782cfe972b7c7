#pragma once

// TILA baseline [Yu et al., ICCAD'15]: timing-driven incremental layer
// assignment by Lagrangian relaxation. Reimplemented here as the paper's
// comparison point. Characteristics faithfully reproduced:
//   * objective = *weighted sum* of segment/via delays, each segment
//     weighted by its number of downstream sinks (total net delay), rather
//     than the per-net critical path;
//   * capacity constraints priced by Lagrange multipliers updated with a
//     projected subgradient step between iterations. Wire capacity is also
//     hard (a move onto a full edge is never taken); via capacity is soft,
//     priced only through its multipliers;
//   * per-iteration reassignment by a greedy per-segment sweep (segments
//     of each net in topological order), with via terms linearized against
//     the neighbouring segments' current layers — not an exact per-net DP.
// The known weakness the paper exploits — multiplier-sensitive convergence
// and no direct control of the worst path — emerges naturally.

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/timing/rc_table.hpp"

namespace cpla::core {

struct TilaOptions {
  int iterations = 6;
  double lambda_step = 0.25;  // subgradient step, relative to delay scale
  double mu_step = 0.10;
};

struct TilaResult {
  int iterations_run = 0;
  double weighted_delay = 0.0;  // final objective
};

/// Optimizes the released nets in-place. The same CriticalSet can be shared
/// with a CPLA run for a fair comparison (the paper releases the same nets
/// for both).
TilaResult run_tila(assign::AssignState* state, const timing::RcTable& rc,
                    const CriticalSet& critical, const TilaOptions& options = {});

}  // namespace cpla::core
