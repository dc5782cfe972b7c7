#pragma once

// The CPLA flow (Problem 1): select critical nets, partition their
// segments (K x K + self-adaptive quadtree), solve each partition with the
// SDP relaxation (or the exact ILP, the Lagrangian engine, or kHybrid's
// per-partition choice between SDP and Lagrangian) in parallel, post-map,
// commit, and iterate until the critical-path timing stops improving.

#include <atomic>
#include <functional>
#include <unordered_map>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/core/displace.hpp"
#include "src/core/model.hpp"
#include "src/core/partition.hpp"
#include "src/core/solve_guard.hpp"
#include "src/ilp/branch_bound.hpp"
#include "src/sdp/solver.hpp"
#include "src/util/status.hpp"

namespace cpla::core {

/// The per-partition solve as a reusable callable: given a built problem
/// and the live state, produce a guarded solution. The flow's default is
/// guarded_solve() with the run's engine options; src/eco substitutes a
/// caching wrapper. Implementations must honor the guarded_solve contract:
/// never throw, always return a well-formed pick. Called concurrently from
/// the OpenMP solve phase — capture only thread-safe state.
using PartitionSolveFn = std::function<GuardedSolve(
    const PartitionProblem& problem, const assign::AssignState& state, GuardStats* stats)>;

/// The Table-2 metric set, computed over the released nets.
struct LaMetrics {
  double avg_tcp = 0.0;   // Avg(Tcp)
  double max_tcp = 0.0;   // Max(Tcp)
  long via_overflow = 0;  // OV#
  long via_count = 0;     // via#
  long wire_overflow = 0;
};

LaMetrics compute_metrics(const assign::AssignState& state, const timing::RcTable& rc,
                          const CriticalSet& critical);

// Engine and GuardTier/GuardOptions/GuardStats live in solve_guard.hpp.

struct CplaOptions {
  double critical_ratio = 0.005;  // 0.5%, the paper's headline setting
  Engine engine = Engine::kSdp;
  PartitionOptions partition;
  ModelOptions model;
  int max_rounds = 8;  // rounds also stop once Avg(Tcp) improves < 0.1%
  // Extra rounds after convergence with the max-focus exponent boosted, so
  // the weights collapse onto the globally-worst nets (a dedicated
  // Max(Tcp)-shaving phase; kept only if the (Avg, Max) score improves).
  int max_refine_rounds = 2;
  // Victim displacement (Problem 1 re-assigns non-critical nets too):
  // demote non-released blockers off critical corridors before each round.
  bool displace_victims = true;
  sdp::SdpOptions sdp{.max_iterations = 60, .tol = 1e-5};
  ilp::MipOptions ilp;
  // Graceful degradation: every partition solve runs through the guarded
  // escalation chain and commits transactionally (see solve_guard.hpp).
  GuardOptions guard;
  bool parallel = true;  // OpenMP over partitions
  // Commit-batch size of the Gauss-Seidel sweep: how many partitions are
  // solved from one snapshot before committing. 0 = auto: the calling
  // thread's OpenMP thread count (see effective_commit_batch). The
  // granularity changes which state neighboring partitions see, so results
  // depend on it — under auto, on the calling thread's OpenMP thread count
  // (host cores, OMP_NUM_THREADS, omp_set_num_threads()). Pin it for results
  // that reproduce across hosts and threads. A batch at least as large as
  // the round's partition count solves them all from one snapshot (Jacobi).
  int commit_batch = 0;
  // ECO hook (src/eco). When `partition_solver` is set, every partition
  // solve routes through it instead of guarded_solve() directly. Off by
  // default, which is the stock flow.
  PartitionSolveFn partition_solver;
  // Live-STA critical-set rediscovery (src/sta). When set (not owned, must
  // be built against this state), every round re-times the graph
  // incrementally and re-selects the working set at `critical_ratio` from
  // worst-over-corners slack, so rip-up rounds chase the design's *live*
  // critical paths instead of the entry snapshot. Scoring, convergence,
  // and best-state tracking stay on the entry critical set — the fixed
  // yardstick the never-worse contract is judged against. The graph is
  // re-timed once more on exit so it reflects the landed state.
  sta::TimingGraph* sta_graph = nullptr;
  // Cooperative cancellation (src/serve): when set and it becomes true, the
  // flow stops at the next round/batch boundary and returns with
  // CplaResult::cancelled set. A cancelled run still lands on the tracked
  // best state — all committed work remains capacity-valid and never-worse
  // — but it is a *partial* optimization; callers wanting replay-identical
  // results must either roll back to the entry state or treat the run as
  // complete. Not owned; may be flipped from another thread.
  const std::atomic<bool>* cancel = nullptr;
};

struct CplaResult {
  LaMetrics metrics;
  int rounds = 0;
  int partitions_solved = 0;
  int max_partition_depth = 0;
  bool cancelled = false;  // CplaOptions::cancel fired mid-run
  GuardStats guard_stats;  // per-tier and per-engine counts across all solves
};

/// The commit-batch size run_cpla uses under `options` when called from
/// the current thread: `commit_batch` when set, else the calling thread's
/// OpenMP thread count (1 when `parallel` is off).
int effective_commit_batch(const CplaOptions& options);

/// The SDP options every partition solve under `options` runs with:
/// `sdp`, with the solver's inner OpenMP gated off when `parallel` is off,
/// so a serial run stays serial all the way down. Shared by run_cpla and
/// the ECO session's partition hook.
sdp::SdpOptions effective_sdp_options(const CplaOptions& options);

/// Runs CPLA on a pre-selected critical set (share the set with a TILA run
/// for a fair comparison).
CplaResult run_cpla(assign::AssignState* state, const timing::RcTable& rc,
                    const CriticalSet& critical, const CplaOptions& options = {});

/// Convenience: selects the critical set at `options.critical_ratio` first.
CplaResult run_cpla(assign::AssignState* state, const timing::RcTable& rc,
                    const CplaOptions& options = {});

struct OptimizeResult {
  Status status;  // kOk, or the dominant failure when the run degraded hard
  CplaResult result;
};

/// The never-crash, never-worse entry point: runs CPLA with the full
/// degradation ladder and guarantees on return that the assignment is
/// capacity-valid and its critical timing + overflow are no worse than on
/// entry — under *any* failure, including an exception escaping the flow
/// (the state is rolled back to the initial assignment in that case).
OptimizeResult optimize(assign::AssignState* state, const timing::RcTable& rc,
                        const CriticalSet& critical, const CplaOptions& options = {});
OptimizeResult optimize(assign::AssignState* state, const timing::RcTable& rc,
                        const CplaOptions& options = {});

}  // namespace cpla::core
