#include "src/core/critical.hpp"

#include "src/core/flow.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"

namespace cpla::core {
namespace {

Prepared bench() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = 111;
  return prepare(gen::generate(spec));
}

TEST(SelectByBudget, ReleasesExactlyTheViolators) {
  Prepared run = bench();
  const auto& state = *run.state;
  const auto& rc = *run.rc;

  // Pick a budget at the delay of the ~20th worst net.
  std::vector<double> delays;
  for (int n = 0; n < state.num_nets(); ++n) {
    if (state.tree(n).segs.empty()) continue;
    delays.push_back(timing::critical_delay(state.tree(n), state.layers(n), rc));
  }
  std::sort(delays.rbegin(), delays.rend());
  ASSERT_GT(delays.size(), 25u);
  const double budget = delays[20];

  const CriticalSet cs = select_by_budget(state, rc, budget);
  EXPECT_EQ(cs.nets.size(), 20u);  // strictly-above-budget nets
  // Every released net really violates; every unreleased net meets budget.
  for (int n = 0; n < state.num_nets(); ++n) {
    if (state.tree(n).segs.empty()) continue;
    const double d = timing::critical_delay(state.tree(n), state.layers(n), rc);
    EXPECT_EQ(static_cast<bool>(cs.released[n]), d > budget) << n;
  }
  // Sorted worst-first.
  for (std::size_t i = 1; i < cs.nets.size(); ++i) {
    const double a =
        timing::critical_delay(state.tree(cs.nets[i - 1]), state.layers(cs.nets[i - 1]), rc);
    const double b =
        timing::critical_delay(state.tree(cs.nets[i]), state.layers(cs.nets[i]), rc);
    EXPECT_GE(a, b);
  }
}

TEST(SelectByBudget, LooseBudgetReleasesNothing) {
  Prepared run = bench();
  const CriticalSet cs = select_by_budget(*run.state, *run.rc, 1e18);
  EXPECT_TRUE(cs.nets.empty());
}

TEST(SelectByBudget, ZeroBudgetReleasesEverythingRoutable) {
  Prepared run = bench();
  const CriticalSet cs = select_by_budget(*run.state, *run.rc, 0.0);
  int routable = 0;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!run.state->tree(n).segs.empty()) ++routable;
  }
  EXPECT_EQ(static_cast<int>(cs.nets.size()), routable);
}

TEST(SelectByBudget, FeedsCplaFlow) {
  Prepared run = bench();
  std::vector<double> delays;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (run.state->tree(n).segs.empty()) continue;
    delays.push_back(
        timing::critical_delay(run.state->tree(n), run.state->layers(n), *run.rc));
  }
  std::sort(delays.rbegin(), delays.rend());
  const double budget = delays[10];
  const CriticalSet cs = select_by_budget(*run.state, *run.rc, budget);
  CplaOptions opt;
  opt.max_rounds = 2;
  const CplaResult r = run_cpla(run.state.get(), *run.rc, cs, opt);
  EXPECT_LE(r.metrics.max_tcp, delays[0] * 1.0001);  // never regresses the worst
}

sta::TimingGraph build_graph(const Prepared& run, const sta::CornerSet& set) {
  sta::TimingGraph graph;
  graph.build(*run.state, set);
  return graph;
}

TEST(SelectCriticalSta, ReleasesTheWorstSlackNetsWorstFirst) {
  Prepared run = bench();
  const sta::CornerSet set = sta::CornerSet::single(*run.rc);
  const sta::TimingGraph graph = build_graph(run, set);

  const double ratio = 0.05;
  const CriticalSet cs = select_critical(*run.state, graph, ratio);
  const std::size_t want =
      static_cast<std::size_t>(std::ceil(ratio * run.state->num_nets()));
  ASSERT_EQ(cs.nets.size(), want);

  // Worst slack first, and every unreleased routable net is no more
  // critical than the released tail.
  for (std::size_t i = 1; i < cs.nets.size(); ++i) {
    EXPECT_LE(graph.net_slack(cs.nets[i - 1]), graph.net_slack(cs.nets[i]));
  }
  const double tail = graph.net_slack(cs.nets.back());
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (run.state->tree(n).segs.empty() || cs.released[n]) continue;
    EXPECT_GE(graph.net_slack(n), tail) << n;
  }
}

TEST(SelectCriticalSta, FlowRediscoversThroughAnAttachedGraph) {
  Prepared run = bench();
  const sta::CornerSet set = sta::CornerSet::single(*run.rc);
  sta::TimingGraph graph;
  graph.build(*run.state, set);

  const CriticalSet entry = select_critical(*run.state, graph, 0.02);
  CplaOptions opt;
  opt.max_rounds = 2;
  opt.sta_graph = &graph;
  const CplaResult r = run_cpla(run.state.get(), *run.rc, entry, opt);
  EXPECT_GE(r.rounds, 1);

  // The flow's exit contract: the attached graph is current for the state
  // it landed on — bit-identical to a from-scratch build.
  sta::TimingGraph fresh;
  fresh.build(*run.state, set);
  ASSERT_EQ(fresh.num_nodes(), graph.num_nodes());
  for (int v = 0; v < fresh.num_nodes(); ++v) {
    EXPECT_EQ(graph.worst_slack(v), fresh.worst_slack(v)) << v;
  }
}

}  // namespace
}  // namespace cpla::core
