#pragma once

// SDP relaxation of the partition model (Section 3.3) plus the
// post-mapping algorithm (Section 3.4, Alg. 1).
//
// The binary quadratic program is lifted to Y = [[1, x'],[x, X]] >= 0 with
//   Y_kk = Y_0k               (x^2 = x)
//   sum_{j in layers(i)} x_ij = 1
//   sum_{i on e} x_ij + s = cap_e(j)   (LP-block slack, rows pre-pruned)
//   Y_kl >= 0, Y_kl >= x_k + x_l - 1   (RLT lower bounds on via products)
// with segment costs on the diagonal and via costs tv(i,j,p,q) on the
// off-diagonal products — the T matrix of Eqn (6). Via capacity enters the
// objective as the lambda penalty (the paper's choice for SDP). The
// continuous solution is rounded by Alg. 1: layers top-down, highest x
// first, respecting every edge capacity.

#include "src/core/model.hpp"
#include "src/sdp/solver.hpp"
#include "src/util/status.hpp"

namespace cpla::core {

struct EngineResult {
  std::vector<int> pick;  // chosen layer-option index per var
  double objective = 0.0; // model objective of the final integral pick
  double relaxation_obj = 0.0;
  int iterations = 0;
  bool solver_ok = true;
  // Structured reason when the relaxation/search degraded (the pick is
  // still always populated — a failed solve keeps the current assignment).
  StatusCode code = StatusCode::kOk;
};

EngineResult solve_partition_sdp(const PartitionProblem& problem,
                                 const assign::AssignState& state,
                                 const sdp::SdpOptions& options = {});

/// Alg. 1, exposed for tests: maps fractional per-option values to an
/// integral, capacity-respecting choice. `x[i][k]` is the relaxation value
/// of var i's option k.
std::vector<int> post_map(const PartitionProblem& problem, const assign::AssignState& state,
                          const std::vector<std::vector<double>>& x);

}  // namespace cpla::core
