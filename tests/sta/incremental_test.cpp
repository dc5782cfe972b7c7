#include "src/sta/timing_graph.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "src/eco/eco_session.hpp"
#include "src/util/rng.hpp"
#include "tests/sta/sta_test_util.hpp"

namespace cpla::sta {
namespace {

// Randomly re-assigns layers on ~net_prob of the routed nets: the pure
// layer churn an ECO / flow round produces, with no tree-shape change.
void mutate_random_layers(assign::AssignState* state, Rng* rng, double net_prob) {
  for (int n = 0; n < state->num_nets(); ++n) {
    const route::SegTree& tree = state->tree(n);
    if (tree.segs.empty() || !rng->chance(net_prob)) continue;
    std::vector<int> layers = state->layers(n);
    bool touched = false;
    for (std::size_t s = 0; s < layers.size(); ++s) {
      if (!rng->chance(0.4)) continue;
      const std::vector<int>& allowed = state->allowed_layers(tree.segs[s].horizontal);
      const int pick =
          allowed[static_cast<std::size_t>(rng->uniform_int(0, static_cast<int>(allowed.size()) - 1))];
      touched = touched || pick != layers[s];
      layers[s] = pick;
    }
    if (touched) state->set_layers(n, std::move(layers));
  }
}

TEST(IncrementalSta, NoOpUpdateTouchesNothingAndStaysIdentical) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph, fresh;
  graph.build(*run.state, set);

  graph.update(*run.state);
  EXPECT_EQ(graph.stats().builds, 1);
  EXPECT_EQ(graph.stats().incremental_updates, 1);
  EXPECT_EQ(graph.stats().dirty_nets, 0);
  EXPECT_EQ(graph.stats().dirty_nodes, 0);

  fresh.build(*run.state, set);
  expect_graphs_bit_identical(graph, fresh);
}

// The registered determinism contract: an incrementally updated graph is
// bit-identical to a from-scratch build on the same state, across a
// randomized stream of layer-churn deltas.
TEST(IncrementalSta, RandomizedLayerChurnIsBitIdenticalToScratch) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph incremental;
  incremental.build(*run.state, set);

  Rng rng(2026);
  for (int step = 0; step < 12; ++step) {
    // Mix small (local cone) and broad deltas.
    mutate_random_layers(run.state.get(), &rng, step % 3 == 0 ? 0.3 : 0.02);
    incremental.update(*run.state);

    TimingGraph fresh;
    fresh.build(*run.state, set);
    SCOPED_TRACE(step);
    expect_graphs_bit_identical(incremental, fresh);
  }
  EXPECT_EQ(incremental.stats().builds, 1);  // never fell back to a rebuild
  EXPECT_EQ(incremental.stats().incremental_updates, 12);
}

TEST(IncrementalSta, DirtyConeIsSmallForALocalDelta) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  // Flip one segment of one net.
  int victim = -1;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!run.state->tree(n).segs.empty()) {
      victim = n;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  std::vector<int> layers = run.state->layers(victim);
  const std::vector<int>& allowed =
      run.state->allowed_layers(run.state->tree(victim).segs[0].horizontal);
  for (const int l : allowed) {
    if (l != layers[0]) {
      layers[0] = l;
      break;
    }
  }
  run.state->set_layers(victim, std::move(layers));

  graph.update(*run.state);
  EXPECT_EQ(graph.stats().dirty_nets, 1);
  // The re-propagated cone must stay a small fraction of the graph — the
  // whole point of the incremental path.
  EXPECT_LT(graph.stats().dirty_nodes, graph.num_nodes() / 2);

  TimingGraph fresh;
  fresh.build(*run.state, set);
  expect_graphs_bit_identical(graph, fresh);
}

TEST(IncrementalSta, TopologyInvalidationForcesARebuild) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  // Reroute one net onto a copy of another net's tree: a real shape change.
  int a = -1, b = -1;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (run.state->tree(n).segs.empty()) continue;
    if (a < 0) {
      a = n;
    } else if (run.state->tree(n).segs.size() != run.state->tree(a).segs.size()) {
      b = n;
      break;
    }
  }
  ASSERT_GE(b, 0);
  run.state->replace_tree(a, run.state->tree(b));
  graph.invalidate_topology();
  graph.update(*run.state);
  EXPECT_EQ(graph.stats().builds, 2);

  TimingGraph fresh;
  fresh.build(*run.state, set);
  expect_graphs_bit_identical(graph, fresh);
}

TEST(IncrementalSta, NetCountGrowthForcesARebuild) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  int donor = -1;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!run.state->tree(n).segs.empty()) {
      donor = n;
      break;
    }
  }
  ASSERT_GE(donor, 0);
  run.state->add_net(run.state->tree(donor));
  graph.update(*run.state);  // detected by net-count mismatch, no invalidate needed
  EXPECT_EQ(graph.stats().builds, 2);

  TimingGraph fresh;
  fresh.build(*run.state, set);
  expect_graphs_bit_identical(graph, fresh);
}

// An attached EcoSession keeps the graph current across resolves: after
// criticality releases + resolve (layer churn from the solver) and after a
// reroute delta (topology change), the session-maintained graph matches a
// from-scratch build on the final state.
TEST(IncrementalSta, EcoSessionKeepsTheAttachedGraphCurrent) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  eco::EcoSession session(run.design.get(), run.state.get(), run.rc.get(), {});
  session.attach_sta(&graph);
  ASSERT_EQ(session.sta_graph(), &graph);

  std::vector<int> routed;
  for (int n = 0; n < run.state->num_nets() && routed.size() < 6; ++n) {
    if (!run.state->tree(n).segs.empty()) routed.push_back(n);
  }
  ASSERT_EQ(routed.size(), 6u);
  for (const int n : routed) {
    ASSERT_TRUE(session.apply(eco::Delta::criticality_changed(n, true)).is_ok());
  }
  ASSERT_TRUE(session.resolve().status.is_ok());
  {
    TimingGraph fresh;
    fresh.build(*run.state, set);
    expect_graphs_bit_identical(graph, fresh);
  }

  // A reroute delta flows through invalidate_topology -> rebuild on the
  // next resolve-driven retime.
  ASSERT_TRUE(
      session.apply(eco::Delta::net_rerouted(routed[0], run.state->tree(routed[1]))).is_ok());
  ASSERT_TRUE(session.resolve().status.is_ok());
  {
    TimingGraph fresh;
    fresh.build(*run.state, set);
    expect_graphs_bit_identical(graph, fresh);
  }
}

}  // namespace
}  // namespace cpla::sta
