#pragma once

// EcoSession: the incremental engineering-change-order engine. Wraps an
// AssignState and accepts a stream of typed deltas (delta.hpp); resolve()
// re-runs the guarded CPLA flow with one substitution that keeps the
// result bit-identical to a fresh core::optimize() on the mutated design:
// per-partition solves route through a content-addressed
// PartitionSolutionCache — partitions whose full solve input (problem +
// live-state reads) is unchanged replay their cached GuardedSolve instead
// of re-running the SDP escalation ladder.
//
// Every partition consults the cache: the key alone decides replay versus
// solve, so a partition an edit touched misses because its content
// changed, not because of where the edit landed. Solves truncated by a
// wall-clock deadline are never inserted (the key carries no deadline).
//
// resolve() and full_resolve() carry core::optimize()'s transactional
// never-crash / never-worse contract. If an `eco.cache.lookup` or
// `eco.resolve.partition` fault fires mid-resolve, the session finishes
// the run on plain guarded solves and then degrades to full_resolve().

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/core/flow.hpp"
#include "src/eco/delta.hpp"
#include "src/eco/solution_cache.hpp"
#include "src/grid/design.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/timing/rc_table.hpp"
#include "src/util/status.hpp"

namespace cpla::eco {

struct EcoOptions {
  core::CplaOptions flow;          // settings for every resolve (stock defaults)
  double critical_ratio = 0.005;   // initial released-set selection
  std::size_t cache_capacity = 4096;  // LRU entries in the solution cache
};

/// Per-resolve controls layered on top of the session-wide EcoOptions.
struct ResolveOptions {
  /// Wall-clock budget per partition solve, routed into the solve-guard
  /// escalation chain (GuardOptions::deadline_ms); 0 keeps the session
  /// default. A deadline-bounded resolve trades replay determinism for
  /// latency — whether a solve hits its deadline depends on the wall
  /// clock, so journal replay of such a resolve is not guaranteed
  /// bit-identical (see DESIGN.md, ECO service failure semantics).
  double deadline_ms = 0.0;
  /// Cooperative cancellation, polled at round/batch granularity inside
  /// the flow. A cancelled resolve returns with result.cancelled set and
  /// the state still valid and never-worse, but only partially optimized;
  /// the caller decides whether to keep it or restore its own snapshot.
  const std::atomic<bool>* cancel = nullptr;
};

/// Snapshot of session counters (stats() assembles it on demand).
struct EcoStats {
  long deltas_applied = 0;
  long resolves = 0;
  long full_resolves = 0;
  long fallbacks = 0;  // degraded resolves re-run as full_resolve()
  long clean_partitions = 0;  // partitions that consulted the cache
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_evictions = 0;
};

class EcoSession {
 public:
  /// `design` must be the mutable design `state` was built on (capacity
  /// deltas write through it); all three pointers are borrowed, not owned.
  EcoSession(grid::Design* design, assign::AssignState* state, const timing::RcTable* rc,
             EcoOptions options = {});

  /// Applies one delta to the design/state/critical-set and invalidates
  /// the per-net bookkeeping it touches. Returns the affected net id
  /// (the new id for kNetAdded, -1 for kCapacityAdjusted); on kBadInput
  /// nothing was mutated.
  Result<int> apply(const Delta& delta);

  /// Incremental re-optimization: every partition is served from the
  /// solution cache when its content key matches and solved otherwise.
  /// Bit-identical to full_resolve() on the same state by construction.
  core::OptimizeResult resolve() { return resolve(ResolveOptions{}); }

  /// resolve() with a per-request deadline and/or cancellation hook. A
  /// cancelled run skips the degraded-fallback pass.
  core::OptimizeResult resolve(const ResolveOptions& request);

  /// From-scratch guarded optimize (no caches, no hooks) — the fallback
  /// target and the equivalence baseline.
  core::OptimizeResult full_resolve();

  const core::CriticalSet& critical() const { return critical_; }

  /// Recovery hook (src/serve): after the underlying design/state have been
  /// restored from a checkpoint *outside* the session's apply() path,
  /// installs the checkpointed critical set and resynchronizes per-net
  /// bookkeeping — version counters are resized to the restored net count
  /// and freshly bumped, and both caches are cleared.
  void restore_critical(core::CriticalSet critical);

  /// Attaches a live STA graph (borrowed, already built on this session's
  /// state). Tree-shape deltas mark its topology stale, and every resolve
  /// — incremental, full, degraded, or cancelled — re-times it against the
  /// state it lands on. Re-timing only: the attached graph never steers
  /// the flow's critical-set selection, so resolve() stays bit-identical
  /// to a session without one. Pass nullptr to detach.
  void attach_sta(sta::TimingGraph* graph) { sta_graph_ = graph; }
  sta::TimingGraph* sta_graph() const { return sta_graph_; }

  EcoStats stats() const;
  PartitionSolutionCache& cache() { return cache_; }
  assign::AssignState& state() { return *state_; }

 private:
  // `guard` is the resolve's guard options (session default plus the
  // request deadline).
  core::GuardedSolve solve_partition(const core::PartitionProblem& problem,
                                     const assign::AssignState& state,
                                     const core::GuardOptions& guard, core::GuardStats* stats);
  CacheKey build_key(const core::PartitionProblem& problem, const assign::AssignState& state,
                     core::Engine engine) const;
  void retime_sta();

  grid::Design* design_;
  assign::AssignState* state_;
  const timing::RcTable* rc_;
  EcoOptions options_;
  core::CriticalSet critical_;

  // Bumped on every tree change of a net; part of the cache key (layer
  // vectors alone cannot distinguish two trees of the same shape count).
  std::vector<std::uint64_t> tree_version_;
  std::uint64_t next_version_ = 1;

  sta::TimingGraph* sta_graph_ = nullptr;  // borrowed; see attach_sta
  PartitionSolutionCache cache_;
  std::atomic<bool> degraded_{false};

  long deltas_applied_ = 0;
  long resolves_ = 0;
  long full_resolves_ = 0;
  long fallbacks_ = 0;
  // Written from the OpenMP solve phase, hence atomic.
  std::atomic<long> clean_partitions_{0};
};

}  // namespace cpla::eco
