#pragma once

// Guarded per-partition solve with graceful degradation. The CPLA flow is
// incremental — the current assignment is always a valid answer — so no
// per-partition failure (ill-conditioned Schur system, iteration cap,
// wall-clock deadline, infeasible relaxation) may ever cost more than that
// partition's improvement. Each solve runs through an escalation chain
//
//   SDP  ->  SDP retry (relaxed tolerance)  ->  ILP (small partitions)
//        ->  per-net tree DP  ->  keep the current assignment
//
// and every tier's pick is validated (well-formed, finite objective, within
// the capacity rows, no model-objective regression vs the incumbent) before
// it is accepted; a tier that fails validation escalates to the next. The
// final tier cannot fail: it returns the incumbent pick, i.e. no change.
//
// With Engine::kLagr the primary tier is the Lagrangian sub-gradient
// engine (src/core/lagr_engine) and the kRetry tier becomes a full SDP
// solve — a *cross-backend* rescue: the two engines fail in disjoint ways
// (sub-gradient stalls vs PSD numerics), so each backs the other up before
// the chain falls through to the DP/keep-current tiers.
//
// Engine::kHybrid picks the primary tier per partition (primary_engine):
// the Lagrangian engine where the lifted SDP is the wrong tool — large
// partitions, whose dense lifted dimension grows quadratically while the
// sub-gradient sweep stays linear, and mid-sized ones under a per-solve
// deadline, where an interior-point solve that blows its budget degrades
// to keep-current but the sweep always lands a valid pick — and SDP
// everywhere else.

#include <vector>

#include "src/assign/state.hpp"
#include "src/core/model.hpp"
#include "src/core/sdp_engine.hpp"
#include "src/ilp/branch_bound.hpp"
#include "src/sdp/solver.hpp"
#include "src/util/status.hpp"

namespace cpla::core {

enum class Engine { kSdp, kIlp, kLagr, kHybrid };
// Engines a partition actually runs on: kHybrid resolves to kSdp or kLagr.
inline constexpr int kNumPrimaryEngines = 3;

enum class GuardTier : int {
  kPrimary = 0,   // configured engine, full settings
  kRetry,         // SDP retry (relaxed tolerance; full SDP under kLagr)
  kIlp,           // exact ILP, small partitions only
  kNetDp,         // per-net tree DP on the partition model
  kKeepCurrent,   // incumbent assignment — always valid
};
inline constexpr int kNumGuardTiers = 5;

const char* to_string(GuardTier tier);

struct GuardOptions {
  // Wall-clock budget per partition solve; 0 = unlimited. Applies to the
  // SDP tiers (the ILP honors MipOptions::time_limit_s).
  double deadline_ms = 0.0;
};

/// Per-tier escalation counters, aggregated across a flow run and reported
/// through the logging layer.
struct GuardStats {
  long solves = 0;
  long tier_used[kNumGuardTiers] = {0, 0, 0, 0, 0};
  // Solves per primary engine, indexed by Engine (kSdp, kIlp, kLagr):
  // counted where the solve ran, so they sum to `solves`.
  long engine_used[kNumPrimaryEngines] = {0, 0, 0};
  long deadline_hits = 0;
  long numerical_failures = 0;
  long iteration_limits = 0;
  long validation_rejects = 0;  // tiers rejected by post-solve validation
  long commit_rollbacks = 0;    // partitions rolled back at commit time

  void merge(const GuardStats& other);
  /// True if any solve needed something beyond the primary tier.
  bool degraded() const;
  /// One INFO line with the per-tier counts (the degradation report).
  void log_summary(const char* label) const;
};

struct GuardedSolve {
  EngineResult result;
  GuardTier tier = GuardTier::kPrimary;
  Status status;  // non-ok only when even the accepted tier had degraded
};

/// Per-net exact tree DP over the partition model (the cheap deterministic
/// fallback tier). Ignores cross-net capacity coupling; the guard validates
/// the result against the capacity rows before accepting it.
EngineResult solve_partition_net_dp(const PartitionProblem& problem,
                                    const assign::AssignState& state);

/// The engine the primary tier runs `problem` on. Under kHybrid: kLagr
/// for a partition of at least 48 vars, or of at least 12 vars under a
/// per-solve deadline, and kSdp otherwise. Every other engine is returned
/// unchanged. Pure, so concurrent solves and replay-keyed callers (the ECO
/// cache) see the same choice for the same problem.
Engine primary_engine(const PartitionProblem& problem, const GuardOptions& guard, Engine engine);

/// Runs the escalation chain for one partition on
/// primary_engine(problem, guard, engine). Never throws; always returns a
/// well-formed pick. `stats` (required) accumulates counters.
GuardedSolve guarded_solve(const PartitionProblem& problem, const assign::AssignState& state,
                           Engine engine, const sdp::SdpOptions& sdp_options,
                           const ilp::MipOptions& ilp_options, const GuardOptions& guard,
                           GuardStats* stats);

}  // namespace cpla::core
