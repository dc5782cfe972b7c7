// The equivalence contract of the incremental engine, stated as a test:
// for seeded randomized delta sequences, EcoSession::resolve() must be
// BIT-IDENTICAL to a fresh core::optimize() on the identically mutated
// design — every net's layer vector equal, every Table-2 metric equal —
// while the warm solution cache actually serves hits. Exercised across
// the default self-adaptive quadtree partitioning, a pure K x K grid, and a
// non-default commit-batch size, plus a seeded property test that mixes
// every session operation (all five delta kinds, rolled-back batches,
// cancelled resolves, restore_critical) at one and four OpenMP threads.

#include <gtest/gtest.h>

#include <atomic>
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
  int commit_batch = 0;  // CplaOptions::commit_batch (0 = auto)
  bool parallel = true;  // CplaOptions::parallel
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
  opt.flow.parallel = run.parallel;
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
/// deltas through apply_delta, the same critical set, and — after a
/// cancelled resolve — the layers the session landed on.
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

  void mirror_layers() {
    for (int net = 0; net < live.state->num_nets(); ++net) {
      if (control.state->layers(net) != live.state->layers(net)) {
        control.state->set_layers(net, std::vector<int>(live.state->layers(net)));
      }
    }
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
  int rolled_back = 0, cancelled = 0, restored = 0;
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
    switch (rng.uniform_int(0, 5)) {
      case 0: {
        // A batch whose last delta is invalid unwinds completely; the
        // control does not see it, and the deltas are retried later.
        std::vector<Delta> doomed = batch;
        doomed.push_back(Delta::net_removed(run.live.state->num_nets() + 7));
        ASSERT_FALSE(run.session.apply_batch(doomed).is_ok()) << where;
        ++seen->rolled_back;
        continue;
      }
      case 1: {
        // A resolve cancelled before its first partition: it lands on the
        // tracked best state, which the control adopts as its own.
        const std::atomic<bool> cancel{true};
        ResolveOptions request;
        request.cancel = &cancel;
        ASSERT_TRUE(run.session.resolve(request).result.cancelled) << where;
        run.mirror_layers();
        ++seen->cancelled;
        break;
      }
      case 2:
        // Recovery path: reinstall the live critical set, which clears
        // both caches and re-versions every tree.
        run.session.restore_critical(run.session.critical());
        ++seen->restored;
        break;
      default:
        break;
    }
    if (rng.chance(0.5)) {
      ASSERT_TRUE(run.session.apply_batch(batch).is_ok()) << where;
    } else {
      for (const Delta& d : batch) ASSERT_TRUE(run.session.apply(d).is_ok()) << where;
    }
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
  EXPECT_GT(seen.rolled_back, 0);
  EXPECT_GT(seen.cancelled, 0);
  EXPECT_GT(seen.restored, 0);
}

}  // namespace
}  // namespace cpla::eco
