// End-to-end graceful-degradation tests: force real failure modes through
// the deterministic fault injector and assert the never-crash, never-worse
// contract of core::optimize() — a capacity-valid assignment whose critical
// timing and overflow are no worse than on entry, with the degradation
// reported through GuardStats. These carry the `faultinject` ctest label.

#include <gtest/gtest.h>

#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {
namespace {

Prepared small_bench(std::uint64_t seed = 81) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 200;
  spec.num_layers = 6;
  spec.seed = seed;
  return prepare(gen::generate(spec));
}

struct Entry {
  double avg = 0.0;
  double max = 0.0;
  long overflow = 0;
};

Entry entry_state(const Prepared& bench, const CriticalSet& critical) {
  const LaMetrics m = compute_metrics(*bench.state, *bench.rc, critical);
  return {m.avg_tcp, m.max_tcp, bench.state->wire_overflow() + bench.state->via_overflow()};
}

void expect_never_worse(const Prepared& bench, const CriticalSet& critical, const Entry& before) {
  const Entry after = entry_state(bench, critical);
  EXPECT_LE(after.avg, before.avg * (1.0 + 1e-9));
  EXPECT_LE(after.max, before.max * (1.0 + 1e-9));
  EXPECT_LE(after.overflow, before.overflow);
}

class FaultInjectFlowTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectFlowTest, CleanRunReportsOkAndPrimaryTier) {
  Prepared bench = small_bench();
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical);
  EXPECT_TRUE(out.status.is_ok());
  EXPECT_GT(out.result.guard_stats.solves, 0);
  EXPECT_GT(out.result.guard_stats.tier_used[static_cast<int>(GuardTier::kPrimary)], 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, CholeskyBreakdownDegradesGracefully) {
  Prepared bench = small_bench(82);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  // Every Schur factorization fails: both SDP tiers are dead, so every
  // partition must land on ILP, per-net DP, or keep-current — and the
  // assignment must still come back valid and no worse.
  FaultInjector::instance().arm_always("la.cholesky.factor");
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical);
  FaultInjector::instance().reset();

  const GuardStats& gs = out.result.guard_stats;
  EXPECT_GT(gs.solves, 0);
  EXPECT_GT(gs.numerical_failures, 0);
  EXPECT_TRUE(gs.degraded());
  // No SDP tier can succeed without a working factorization. (Partitions
  // with no free variables are trivially "primary", hence no kPrimary
  // assertion.)
  EXPECT_EQ(gs.tier_used[static_cast<int>(GuardTier::kRetry)], 0);
  EXPECT_GT(gs.tier_used[static_cast<int>(GuardTier::kIlp)] +
                gs.tier_used[static_cast<int>(GuardTier::kNetDp)] +
                gs.tier_used[static_cast<int>(GuardTier::kKeepCurrent)],
            0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, IterationLimitDegradesGracefully) {
  Prepared bench = small_bench(83);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  FaultInjector::instance().arm_always("sdp.solve.iterlimit");
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical);
  FaultInjector::instance().reset();

  const GuardStats& gs = out.result.guard_stats;
  EXPECT_GT(gs.solves, 0);
  EXPECT_GT(gs.iteration_limits, 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, ForcedDeadlineKeepsCurrentAssignment) {
  Prepared bench = small_bench(84);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  // The deadline fires before any tier runs: every solve must resolve to
  // the keep-current tier, i.e. a guaranteed no-op per partition.
  FaultInjector::instance().arm_always("solve_guard.deadline");
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical);
  FaultInjector::instance().reset();

  const GuardStats& gs = out.result.guard_stats;
  EXPECT_GT(gs.solves, 0);
  EXPECT_GT(gs.deadline_hits, 0);
  EXPECT_GT(gs.tier_used[static_cast<int>(GuardTier::kKeepCurrent)], 0);
  // Nothing between "trivial" and "kept": no tier ever got to run.
  EXPECT_EQ(gs.tier_used[static_cast<int>(GuardTier::kRetry)], 0);
  EXPECT_EQ(gs.tier_used[static_cast<int>(GuardTier::kIlp)], 0);
  EXPECT_EQ(gs.tier_used[static_cast<int>(GuardTier::kNetDp)], 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, TinyWallClockDeadlineDegradesGracefully) {
  Prepared bench = small_bench(85);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  CplaOptions opt;
  opt.guard.deadline_ms = 1e-6;  // effectively a 0-ms budget per solve
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, opt);

  const GuardStats& gs = out.result.guard_stats;
  EXPECT_GT(gs.solves, 0);
  EXPECT_GT(gs.deadline_hits, 0);
  EXPECT_GT(gs.tier_used[static_cast<int>(GuardTier::kKeepCurrent)], 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, IntermittentCholeskyFailureStaysNeverWorse) {
  Prepared bench = small_bench(86);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  // Fail a window of factorizations mid-run instead of all of them.
  FaultInjector::instance().arm("la.cholesky.factor", 5, 50);
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical);
  FaultInjector::instance().reset();

  EXPECT_GT(out.result.guard_stats.solves, 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, LagrSolveFailureEscalatesToSdpRescue) {
  // Every Lagrangian partition solve fails: the guard's cross-backend
  // retry tier (a full SDP solve under the kLagr primary) must carry the
  // run, and the contract must hold end to end.
  Prepared bench = small_bench(89);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  CplaOptions opt;
  opt.engine = Engine::kLagr;
  FaultInjector::instance().arm_always("lagr.solve");
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, opt);
  FaultInjector::instance().reset();

  EXPECT_GT(out.result.guard_stats.solves, 0);
  EXPECT_EQ(out.result.guard_stats.tier_used[static_cast<int>(GuardTier::kPrimary)], 0)
      << "an armed lagr.solve passed the primary tier";
  EXPECT_GT(out.result.guard_stats.tier_used[static_cast<int>(GuardTier::kRetry)], 0)
      << "cross-backend SDP rescue never engaged";
  EXPECT_GT(out.result.guard_stats.numerical_failures, 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, IntermittentLagrFailureStaysNeverWorse) {
  Prepared bench = small_bench(90);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const Entry before = entry_state(bench, critical);

  CplaOptions opt;
  opt.engine = Engine::kLagr;
  FaultInjector::instance().arm("lagr.solve", 3, 20);
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, opt);
  FaultInjector::instance().reset();

  EXPECT_GT(out.result.guard_stats.solves, 0);
  expect_never_worse(bench, critical, before);
}

TEST_F(FaultInjectFlowTest, EmptyCriticalSetIsANoOp) {
  Prepared bench = small_bench(87);
  CriticalSet empty;
  empty.released.assign(bench.state->num_nets(), 0);
  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, empty);
  EXPECT_TRUE(out.status.is_ok());
  EXPECT_EQ(out.result.guard_stats.solves, 0);
}

}  // namespace
}  // namespace cpla::core
