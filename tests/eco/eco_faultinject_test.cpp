// Fault-injection suite for the ECO engine (ctest labels: faultinject,
// eco). Arms the two eco.* sites — a poisoned cache lookup and a failing
// partition re-solve — and asserts the degradation contract: resolve()
// never crashes, falls back to full_resolve(), stays never-worse, and
// (because the session restores its entry snapshot before the fallback)
// ends bit-identical to a stock core::optimize() on an untouched copy.
// The forced solve_guard.deadline fault checks that deadline-truncated
// solves never enter the solution cache.

#include <gtest/gtest.h>

#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

struct Entry {
  double avg = 0.0;
  double max = 0.0;
  long overflow = 0;
};

Entry entry_state(const core::Prepared& bench, const core::CriticalSet& critical) {
  const core::LaMetrics m = core::compute_metrics(*bench.state, *bench.rc, critical);
  return {m.avg_tcp, m.max_tcp, bench.state->wire_overflow() + bench.state->via_overflow()};
}

void expect_never_worse(const core::Prepared& bench, const core::CriticalSet& critical,
                        const Entry& before) {
  const Entry after = entry_state(bench, critical);
  EXPECT_LE(after.avg, before.avg * (1.0 + 1e-9));
  EXPECT_LE(after.max, before.max * (1.0 + 1e-9));
  EXPECT_LE(after.overflow, before.overflow);
}

class EcoFaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

// Runs a faulted resolve side by side with a stock optimize on an
// identical control copy and requires bit-identical final assignments.
void expect_degrades_to_stock(const char* site, std::uint64_t seed) {
  core::Prepared live = make_bench(seed);
  core::Prepared control = make_bench(seed);

  EcoOptions opt;
  opt.critical_ratio = 0.03;
  EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);
  const core::CriticalSet critical = session.critical();
  const Entry before = entry_state(live, critical);

  FaultInjector::instance().arm_always(site);
  const core::OptimizeResult out = session.resolve();
  FaultInjector::instance().reset();
  EXPECT_TRUE(out.status.is_ok());

  const EcoStats s = session.stats();
  EXPECT_GE(s.fallbacks, 1) << site << " never triggered the fallback";
  EXPECT_GE(s.full_resolves, 1);
  expect_never_worse(live, critical, before);

  // The fallback re-optimized from the restored entry snapshot, so the
  // faulted session must land exactly where the stock path lands.
  const core::OptimizeResult ref =
      core::optimize(control.state.get(), *control.rc, critical, opt.flow);
  EXPECT_TRUE(ref.status.is_ok());
  expect_assignments_equal(*live.state, *control.state);
  expect_metrics_equal(*live.state, *control.state, *live.rc, critical);
}

TEST_F(EcoFaultInjectTest, PoisonedCacheLookupDegradesToFullResolve) {
  expect_degrades_to_stock("eco.cache.lookup", 91);
}

TEST_F(EcoFaultInjectTest, FailingPartitionResolveDegradesToFullResolve) {
  expect_degrades_to_stock("eco.resolve.partition", 92);
}

TEST_F(EcoFaultInjectTest, IntermittentFaultOnAWarmSessionStaysNeverWorse) {
  core::Prepared live = make_bench(93);
  EcoOptions opt;
  opt.critical_ratio = 0.03;
  EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);
  const core::CriticalSet critical = session.critical();

  ASSERT_TRUE(session.resolve().status.is_ok());  // warm the cache cleanly
  const std::vector<Delta> script =
      make_edit_script(session.state(), critical, {.count = 5, .seed = 93});
  for (const Delta& d : script) ASSERT_TRUE(session.apply(d).is_ok());
  // Measure against the post-edit released set (the script may have
  // toggled criticality; the set is stable across a resolve).
  const core::CriticalSet& crit_now = session.critical();
  const Entry before = entry_state(live, crit_now);

  // One mid-run poisoned lookup, not a permanent failure.
  FaultInjector::instance().arm("eco.cache.lookup", 2, 1);
  const core::OptimizeResult out = session.resolve();
  FaultInjector::instance().reset();
  EXPECT_TRUE(out.status.is_ok());
  EXPECT_GE(session.stats().fallbacks, 1);
  expect_never_worse(live, crit_now, before);

  // The session recovers: the next resolve is clean again and uses the
  // cache (full_resolve's solves bypassed it, so entries are still valid).
  const long fallbacks = session.stats().fallbacks;
  EXPECT_TRUE(session.resolve().status.is_ok());
  EXPECT_EQ(session.stats().fallbacks, fallbacks);
}

TEST_F(EcoFaultInjectTest, DeadlineTruncatedSolvesAreNeverReplayed) {
  // Every guarded solve of the first resolve hits the forced deadline and
  // keeps the current assignment. Those picks depend on the wall clock,
  // not on the cache key, so the fault-free resolve that follows must
  // solve for real and land where a stock optimize lands.
  core::Prepared live = make_bench(94);
  core::Prepared control = make_bench(94);
  EcoOptions opt;
  opt.critical_ratio = 0.03;
  EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);
  const core::CriticalSet critical = session.critical();
  obs::Counter& uncacheable = obs::metrics().counter("eco.cache.uncacheable");
  const long uncacheable_before = uncacheable.value();

  FaultInjector::instance().arm_always("solve_guard.deadline");
  ASSERT_TRUE(session.resolve().status.is_ok());
  ASSERT_TRUE(core::optimize(control.state.get(), *control.rc, critical, opt.flow).status.is_ok());
  FaultInjector::instance().reset();
  EXPECT_GT(uncacheable.value(), uncacheable_before);
  EXPECT_EQ(session.cache().size(), 0u);
  expect_assignments_equal(*live.state, *control.state);

  ASSERT_TRUE(session.resolve().status.is_ok());
  ASSERT_TRUE(core::optimize(control.state.get(), *control.rc, critical, opt.flow).status.is_ok());
  expect_assignments_equal(*live.state, *control.state);
  expect_metrics_equal(*live.state, *control.state, *live.rc, critical);
  EXPECT_EQ(session.stats().fallbacks, 0);
}

TEST_F(EcoFaultInjectTest, FlowDeadlineReachesThePartitionSolves) {
  core::Prepared live = make_bench(95);
  EcoOptions opt;
  opt.critical_ratio = 0.03;
  // A deadline far below one clock read: every solve expires at tier 0.
  opt.flow.guard.deadline_ms = 1e-9;
  EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);
  obs::Counter& deadline_hits = obs::metrics().counter("core.guard.deadline_hits");
  const long before = deadline_hits.value();

  ASSERT_TRUE(session.resolve().status.is_ok());
  EXPECT_GT(deadline_hits.value(), before);
  EXPECT_EQ(session.cache().size(), 0u);
}

}  // namespace
}  // namespace cpla::eco
