// The equivalence contract of the incremental engine, stated as a test:
// for seeded randomized delta sequences, EcoSession::resolve() must be
// BIT-IDENTICAL to a fresh core::optimize() on the identically mutated
// design — every net's layer vector equal, every Table-2 metric equal —
// while the warm solution cache actually serves hits. Exercised across
// the default self-adaptive quadtree partitioning, a pure K x K grid, and a
// non-default commit-batch size.

#include <gtest/gtest.h>

#include <vector>

#include "src/eco/delta.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

struct EquivalenceRun {
  std::uint64_t seed = 1;
  int deltas = 12;
  int batches = 3;  // resolve() after every `deltas / batches` edits
  core::PartitionOptions partition;  // default = quadtree enabled
  int commit_batch = 0;  // CplaOptions::commit_batch (0 = auto)
};

// Drives a session and an independent control copy of the same design
// through the same edit stream, resolving in batches; after every batch
// the session's incremental resolve must match a from-scratch optimize on
// the control bit for bit.
void run_equivalence(const EquivalenceRun& run) {
  core::Prepared live = make_bench(run.seed, 16, 150);
  core::Prepared control = make_bench(run.seed, 16, 150);

  EcoOptions opt;
  opt.critical_ratio = 0.03;
  opt.flow.partition = run.partition;
  opt.flow.commit_batch = run.commit_batch;
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

    expect_assignments_equal(*live.state, *control.state);
    expect_metrics_equal(*live.state, *control.state, *live.rc, control_critical);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence after batch " << batch << " (seed " << run.seed << ")";
    }
  }

  const EcoStats s = session.stats();
  EXPECT_EQ(s.fallbacks, 0);
  EXPECT_GT(s.cache_hits, 0) << "warm resolves never replayed a partition";
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
  // the auto (thread-count) batch: cached picks must still replay exactly
  // against whichever state the batch's partitions were built on.
  EquivalenceRun run;
  run.seed = 6;
  run.commit_batch = 16;
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

}  // namespace
}  // namespace cpla::eco
