// The equivalence contract of the incremental engine, stated as a test:
// for seeded randomized delta sequences, EcoSession::resolve() must be
// BIT-IDENTICAL to a fresh core::optimize() on the identically mutated
// design — every net's layer vector equal, every Table-2 metric equal —
// while the warm solution cache actually serves hits. Exercised across
// the default self-adaptive quadtree partitioning, a pure K x K grid, and a
// non-default commit-batch size and the per-partition kHybrid engine, plus
// a seeded property test that mixes every session operation (all five
// delta kinds, restore_critical) at one and four OpenMP threads.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/eco/delta.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "src/util/rng.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

struct EquivalenceRun {
  std::uint64_t seed = 1;
  int deltas = 12;
  int batches = 3;  // resolve() after every `deltas / batches` edits
  core::PartitionOptions partition;  // default = quadtree enabled
  int commit_batch = 1;  // CplaOptions::commit_batch
  bool parallel = true;  // CplaOptions::parallel
  core::Engine engine = core::Engine::kSdp;  // CplaOptions::engine
  double critical_ratio = 0.03;  // EcoOptions::critical_ratio
};

// Drives a session and an independent control copy of the same design
// through the same edit stream, resolving in batches; after every batch
// the session's incremental resolve must match a from-scratch optimize on
// the control bit for bit.
void run_equivalence(const EquivalenceRun& run) {
  core::Prepared live = make_bench(run.seed, 16, 150);
  core::Prepared control = make_bench(run.seed, 16, 150);

  EcoOptions opt;
  opt.critical_ratio = run.critical_ratio;
  opt.flow.partition = run.partition;
  opt.flow.commit_batch = run.commit_batch;
  opt.flow.parallel = run.parallel;
  opt.flow.engine = run.engine;
  EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);

  // Mirror of the session's critical set for the control side.
  core::CriticalSet control_critical = session.critical();
  ASSERT_FALSE(control_critical.nets.empty());

  // The whole script is generated against the entry state: resolve() only
  // changes layer assignments, never trees/capacities/criticality, so the
  // stream stays valid when interleaved with resolves.
  const std::vector<Delta> script = make_edit_script(
      *live.state, session.critical(), {.count = run.deltas, .seed = run.seed});
  ASSERT_EQ(static_cast<int>(script.size()), run.deltas);

  const int per_batch = run.deltas / run.batches;
  std::size_t next = 0;
  core::GuardStats solved;  // over every incremental resolve
  for (int batch = 0; batch < run.batches; ++batch) {
    const std::size_t end =
        batch + 1 == run.batches ? script.size() : next + static_cast<std::size_t>(per_batch);
    for (; next < end; ++next) {
      ASSERT_TRUE(session.apply(script[next]).is_ok()) << "delta " << next;
      ASSERT_TRUE(apply_delta(script[next], control.design.get(), control.state.get(),
                              &control_critical)
                      .is_ok())
          << "delta " << next;
    }

    const core::OptimizeResult inc = session.resolve();
    core::CplaOptions control_opt = opt.flow;
    const core::OptimizeResult ref =
        core::optimize(control.state.get(), *control.rc, control_critical, control_opt);
    ASSERT_TRUE(inc.status.is_ok());
    ASSERT_TRUE(ref.status.is_ok());
    solved.merge(inc.result.guard_stats);

    expect_assignments_equal(*live.state, *control.state);
    expect_metrics_equal(*live.state, *control.state, *live.rc, control_critical);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence after batch " << batch << " (seed " << run.seed << ")";
    }
  }

  const EcoStats s = session.stats();
  EXPECT_EQ(s.fallbacks, 0);
  EXPECT_GT(s.cache_hits, 0) << "warm resolves never replayed a partition";
  if (run.engine == core::Engine::kHybrid) {
    EXPECT_GT(solved.engine_used[static_cast<int>(core::Engine::kSdp)], 0)
        << "no partition stayed on sdp";
    EXPECT_GT(solved.engine_used[static_cast<int>(core::Engine::kLagr)], 0)
        << "no partition routed to lagr";
  }
}

TEST(EcoEquivalenceTest, QuadtreePartitioningSeed1) {
  EquivalenceRun run;
  run.seed = 1;
  run_equivalence(run);
}

TEST(EcoEquivalenceTest, QuadtreePartitioningSeed2) {
  EquivalenceRun run;
  run.seed = 2;
  run_equivalence(run);
}

TEST(EcoEquivalenceTest, QuadtreePartitioningSeed3) {
  EquivalenceRun run;
  run.seed = 3;
  run_equivalence(run);
}

TEST(EcoEquivalenceTest, PureKxKPartitioning) {
  // Disable the self-adaptive quadtree refinement: a huge segment budget
  // means no K x K cell ever splits.
  EquivalenceRun run;
  run.seed = 4;
  run.partition.max_segments = 1 << 20;
  run_equivalence(run);
}

TEST(EcoEquivalenceTest, WideCommitBatch) {
  // Sixteen partitions solved from one snapshot per commit, coarser than
  // the default batch of one: cached picks must still replay exactly
  // against whichever state the batch's partitions were built on.
  EquivalenceRun run;
  run.seed = 6;
  run.commit_batch = 16;
  run_equivalence(run);
}

#ifdef _OPENMP
TEST(EcoEquivalenceTest, SerialFlowUnderFourThreads) {
  // flow.parallel = false must keep the whole resolve serial, the ECO
  // partition hook's SDP solves included (core::effective_sdp_options),
  // exactly as in a fresh serial optimize — even with threads to spare.
  ScopedOmpThreads threads(4);
  EquivalenceRun run;
  run.seed = 7;
  run.parallel = false;
  run_equivalence(run);
}
#endif

TEST(EcoEquivalenceTest, HybridEngine) {
  // kHybrid picks SDP or Lagrangian per partition; the pick is part of the
  // cache key, so a replay must reproduce it exactly. A pure 2 x 2 grid
  // (no quadtree split) over a denser released set puts partitions on both
  // sides of the 48-var cutoff. No deadline: the choice stays a function
  // of size alone.
  EquivalenceRun run;
  run.seed = 8;
  run.engine = core::Engine::kHybrid;
  run.critical_ratio = 0.05;
  run.partition.k = 2;
  run.partition.max_segments = 1 << 20;
  run_equivalence(run);
}

TEST(EcoEquivalenceTest, SingleDeltaPerResolve) {
  // The finest-grained ECO loop: resolve after every single edit. This is
  // where the cache earns its keep (most partitions untouched each step).
  EquivalenceRun run;
  run.seed = 5;
  run.deltas = 6;
  run.batches = 6;
  run_equivalence(run);
}

// --- Seeded property test --------------------------------------------

/// A session and a control copy driven through one random stream of
/// operations. The control sees only what a fresh optimize would: the same
/// deltas through apply_delta and the same critical set.
struct PropertyRun {
  core::Prepared live;
  core::Prepared control;
  EcoOptions opt;
  EcoSession session;
  core::CriticalSet control_critical;

  explicit PropertyRun(std::uint64_t seed)
      : live(make_bench(seed, 16, 150)),
        control(make_bench(seed, 16, 150)),
        opt(options()),
        session(live.design.get(), live.state.get(), live.rc.get(), opt),
        control_critical(session.critical()) {}

  static EcoOptions options() {
    EcoOptions o;
    o.critical_ratio = 0.03;
    return o;
  }

  // Resolves both sides and requires bit-identical layers and metrics.
  void resolve_and_compare(const std::string& where) {
    const bool failed_before = ::testing::Test::HasFailure();
    ASSERT_TRUE(session.resolve().status.is_ok()) << where;
    ASSERT_TRUE(
        core::optimize(control.state.get(), *control.rc, control_critical, opt.flow).status.is_ok())
        << where;
    expect_assignments_equal(*live.state, *control.state);
    expect_metrics_equal(*live.state, *control.state, *live.rc, control_critical);
    if (!failed_before && ::testing::Test::HasFailure()) FAIL() << "divergence at " << where;
  }
};

/// What the streams exercised, summed over every run.
struct Coverage {
  std::set<DeltaKind> kinds;
  int restored = 0;
};

void run_property(std::uint64_t seed, int threads, Coverage* seen) {
#ifdef _OPENMP
  const ScopedOmpThreads scoped(threads);
#endif
  PropertyRun run(seed);
  ASSERT_FALSE(run.control_critical.nets.empty());
  const std::vector<Delta> script = make_edit_script(
      *run.live.state, run.session.critical(), {.count = 24, .seed = seed});
  ASSERT_EQ(script.size(), 24u);

  Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<std::uint64_t>(threads));
  std::size_t next = 0;
  for (int step = 0; next < script.size(); ++step) {
    const std::string where = "seed " + std::to_string(seed) + " threads " +
                              std::to_string(threads) + " step " + std::to_string(step);
    const std::size_t take = std::min<std::size_t>(
        script.size() - next, static_cast<std::size_t>(rng.uniform_int(1, 3)));
    const std::vector<Delta> batch(script.begin() + static_cast<std::ptrdiff_t>(next),
                                   script.begin() + static_cast<std::ptrdiff_t>(next + take));
    if (rng.uniform_int(0, 4) == 1) {
      // Recovery path: reinstall the live critical set, which clears both
      // caches and re-versions every tree.
      run.session.restore_critical(run.session.critical());
      ++seen->restored;
    }
    for (const Delta& d : batch) ASSERT_TRUE(run.session.apply(d).is_ok()) << where;
    for (const Delta& d : batch) {
      ASSERT_TRUE(apply_delta(d, run.control.design.get(), run.control.state.get(),
                              &run.control_critical)
                      .is_ok())
          << where;
      seen->kinds.insert(d.kind);
    }
    next += take;
    run.resolve_and_compare(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(run.session.stats().fallbacks, 0);
  EXPECT_GT(run.session.stats().cache_hits, 0);
}

TEST(EcoEquivalenceTest, RandomOperationStreamsMatchAFreshOptimize) {
  Coverage seen;
  for (int threads : {1, 4}) {
    for (std::uint64_t seed : {21, 22}) {
      run_property(seed, threads, &seen);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(seen.kinds.size(), 5u) << "the streams missed a delta kind";
  EXPECT_GT(seen.restored, 0);
}

}  // namespace
}  // namespace cpla::eco
