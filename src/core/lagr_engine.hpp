#pragma once

// Lagrangian sub-gradient engine over the partition model — the second
// full-chip backend next to the SDP relaxation. The capacity rows (4c) are
// dualized with one multiplier each; pricing is a coordinate sweep in var
// order against the linear costs, the dualized row prices, and the pair
// costs linearized at the neighbors' current picks (the TILA approximation,
// here confined to a tier whose output is validated by the solve guard).
// Every sweep's integral pick is scored on the *true* model objective and
// the best capacity-feasible pick seen is returned; when no sweep beats the
// incumbent, the incumbent comes back unchanged — the result always passes
// the guard's pick_acceptable validation, preserving the never-worse
// contract without any PSD numerics or wall-clock risk.
//
// Deterministic by construction: serial sweeps in var order, multiplier
// updates in row order (partition-level parallelism lives in the flow's
// loop over partitions). This TU is registered in the bit-identity
// contract (-ffp-contract=off; src/util/determinism_contract.hpp).

#include "src/core/model.hpp"
#include "src/core/sdp_engine.hpp"

namespace cpla::core {

/// Solves one partition with the dualized-capacity sub-gradient method.
/// Never throws; the pick always satisfies the guard's validation (best
/// feasible sweep result, or the incumbent). Fault site "lagr.solve"
/// simulates a failed solve (incumbent pick, kNumericalFailure) so tests
/// can drive the cross-backend escalation chain.
EngineResult solve_partition_lagr(const PartitionProblem& problem,
                                  const assign::AssignState& state);

}  // namespace cpla::core
