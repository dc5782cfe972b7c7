#pragma once

// Cross-backend arbiter: the per-partition runtime decision between the
// SDP relaxation and the Lagrangian sub-gradient engine, sitting in front
// of the solve-guard escalation chain. The policy is a pure function of
// (options, problem, guard options, base engine):
//
//   * kSdp / kLagr force one backend everywhere (kSdp is the stock flow —
//     the arbiter returns the configured base engine untouched);
//   * kHybrid routes a partition to the Lagrangian engine when the SDP
//     tier is the wrong tool: partitions at or above `lagr_min_vars`
//     (dense lifted dimension grows quadratically; the sub-gradient sweep
//     is linear per iteration), and any partition under a per-solve
//     deadline at or above `deadline_min_vars` (an interior-point solve
//     that blows its budget degrades to keep-current; the sweep always
//     lands a valid pick).
//
// Because choose() reads no recorded outcomes, concurrent solves and
// replay-keyed callers (the ECO cache) see the same decision for the same
// problem regardless of how many solves ran before it.

#include "src/core/model.hpp"
#include "src/core/solve_guard.hpp"

namespace cpla::core {

enum class BackendMode { kSdp, kLagr, kHybrid };

const char* to_string(BackendMode mode);

struct ArbiterOptions {
  BackendMode mode = BackendMode::kSdp;
  // Hybrid thresholds, in partition vars.
  int lagr_min_vars = 48;      // at/above: sub-gradient beats the lifted SDP
  int deadline_min_vars = 12;  // at/above under a deadline: don't risk keep-current
};

/// Running tallies of the arbiter's decisions and the observed outcomes.
struct ArbiterStats {
  long sdp_chosen = 0;
  long lagr_chosen = 0;
  long sdp_escalations = 0;   // SDP-primary solves that left the primary tier
  long lagr_escalations = 0;  // Lagrangian-primary solves that did
  void merge(const ArbiterStats& other);
};

class BackendArbiter {
 public:
  explicit BackendArbiter(const ArbiterOptions& options) : options_(options) {}

  /// Picks the engine for one partition. `base` is the flow's configured
  /// engine: kIlp is never overridden (an explicit exact-engine request),
  /// and mode kSdp returns `base` untouched. Pure and thread-safe.
  Engine choose(const PartitionProblem& problem, const GuardOptions& guard,
                Engine base) const;

  /// Tallies a solve outcome into the stats. Never changes choose(); not
  /// thread-safe, so call from serial sections (commit time).
  void record(Engine chosen, const GuardedSolve& solve);

  const ArbiterStats& stats() const { return stats_; }

 private:
  ArbiterOptions options_;
  ArbiterStats stats_;
};

}  // namespace cpla::core
