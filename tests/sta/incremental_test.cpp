#include "src/sta/timing_graph.hpp"

#include <algorithm>
#include <limits>
#include <string>
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

// Moves one segment of `net` to another allowed layer.
void flip_first_segment(assign::AssignState* state, int net) {
  std::vector<int> layers = state->layers(net);
  for (const int l : state->allowed_layers(state->tree(net).segs[0].horizontal)) {
    if (l != layers[0]) {
      layers[0] = l;
      break;
    }
  }
  state->set_layers(net, layers);
}

// The net driving the worst endpoint at corner 0: editing it moves every
// derived budget's corner 0.
int worst_endpoint_net(const TimingGraph& graph) {
  NodeId worst = graph.endpoints().front();
  for (const NodeId v : graph.endpoints()) {
    if (graph.arrival(0, v) > graph.arrival(0, worst)) worst = v;
  }
  return graph.node_net(worst);
}

// `count` corners with distinct scales, every one deriving its budget
// (required_time < 0) or every one with an explicit budget. The counts the
// tests sweep cover one corner, the usual two to four, and more.
std::vector<RcCorner> corners_of(int count, bool derived) {
  std::vector<RcCorner> corners;
  for (int i = 0; i < count; ++i) {
    RcCorner corner;
    corner.name = std::string(1, static_cast<char>('a' + i));
    corner.res_scale = 0.8 + 0.15 * i;
    corner.cap_scale = 1.2 - 0.05 * i;
    corner.driver_scale = 0.95 + 0.05 * i;
    corner.required_time = derived ? -1.0 : 1.0e4 + 2.5e3 * i;
    corners.push_back(corner);
  }
  return corners;
}

constexpr int kCornerCounts[] = {1, 2, 3, 4, 5};

// Every corner derives its budget: an edit on the critical path moves the
// budget, the update re-sweeps every required time, and the result is a
// fresh build's, bit for bit — after a one-net edit and after many-net
// edits, at every corner count.
TEST(IncrementalSta, DerivedBudgetUpdatesEqualAFreshBuild) {
  for (const int count : kCornerCounts) {
    SCOPED_TRACE(count);
    core::Prepared run = sta_bench();
    CornerSet set(*run.rc, corners_of(count, /*derived=*/true));
    TimingGraph graph;
    graph.build(*run.state, set);
    ASSERT_EQ(graph.num_corners(), count);

    Rng rng(77);
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(step);
      const double budget_before = graph.corner_required(0);
      if (step % 2 == 0) {
        flip_first_segment(run.state.get(), worst_endpoint_net(graph));
      } else {
        mutate_random_layers(run.state.get(), &rng, 0.2);
      }
      graph.update(*run.state);
      if (step % 2 == 0) {
        EXPECT_NE(graph.corner_required(0), budget_before);
        EXPECT_EQ(graph.stats().dirty_nets, 1);
      }
      // A moved budget re-sweeps the whole backward pass.
      if (graph.corner_required(0) != budget_before) {
        EXPECT_GE(graph.stats().dirty_nodes, graph.num_nodes());
      }
      TimingGraph fresh;
      fresh.build(*run.state, set);
      expect_graphs_bit_identical(graph, fresh);
    }
    EXPECT_EQ(graph.stats().builds, 1);
  }
}

// With explicit budgets nothing moves the required times at the endpoints,
// so a one-net edit re-propagates only its cones, stopping where values
// come out bitwise equal; many-net edits stay bit-identical too.
TEST(IncrementalSta, ExplicitBudgetKeepsTheUpdateInsideTheCones) {
  for (const int count : kCornerCounts) {
    SCOPED_TRACE(count);
    core::Prepared run = sta_bench();
    CornerSet set(*run.rc, corners_of(count, /*derived=*/false));
    TimingGraph graph;
    graph.build(*run.state, set);
    ASSERT_EQ(graph.num_corners(), count);

    flip_first_segment(run.state.get(), worst_endpoint_net(graph));
    graph.update(*run.state);
    EXPECT_EQ(graph.stats().dirty_nets, 1);
    EXPECT_GT(graph.stats().dirty_nodes, 0);
    EXPECT_LT(graph.stats().dirty_nodes, graph.num_nodes());
    TimingGraph fresh;
    fresh.build(*run.state, set);
    expect_graphs_bit_identical(graph, fresh);

    Rng rng(78);
    mutate_random_layers(run.state.get(), &rng, 0.2);
    graph.update(*run.state);
    TimingGraph fresh_after_churn;
    fresh_after_churn.build(*run.state, set);
    expect_graphs_bit_identical(graph, fresh_after_churn);
  }
}

// Corners never mix: each corner of `graph` times exactly as a one-corner
// graph of that corner alone, and the merge is the min over corners. An
// oracle outside the kernels' corner striding, which a fresh build()
// shares with update().
void expect_each_corner_times_alone(const TimingGraph& graph, const core::Prepared& run,
                                    const std::vector<RcCorner>& corners) {
  for (int c = 0; c < graph.num_corners(); ++c) {
    SCOPED_TRACE(c);
    CornerSet one(*run.rc, {corners[static_cast<std::size_t>(c)]});
    TimingGraph alone;
    alone.build(*run.state, one);
    ASSERT_EQ(alone.num_nodes(), graph.num_nodes());
    ASSERT_TRUE(same_bits(graph.corner_required(c), alone.corner_required(0)));
    for (int v = 0; v < graph.num_nodes(); ++v) {
      ASSERT_TRUE(same_bits(graph.arrival(c, v), alone.arrival(0, v))) << "arrival node " << v;
      ASSERT_TRUE(same_bits(graph.required(c, v), alone.required(0, v))) << "required node " << v;
    }
    for (int e = 0; e < graph.num_edges(); ++e) {
      ASSERT_TRUE(same_bits(graph.edge_delay(c, e), alone.edge_delay(0, e))) << "edge " << e;
    }
  }
  for (int v = 0; v < graph.num_nodes(); ++v) {
    double worst = std::numeric_limits<double>::infinity();
    for (int c = 0; c < graph.num_corners(); ++c) worst = std::min(worst, graph.slack(c, v));
    ASSERT_TRUE(same_bits(graph.worst_slack(v), worst)) << "worst node " << v;
  }
}

TEST(IncrementalSta, EachCornerTimesAsItWouldAloneAtEveryCornerCount) {
  for (const bool derived : {true, false}) {
    for (const int count : kCornerCounts) {
      SCOPED_TRACE(testing::Message() << (derived ? "derived " : "explicit ") << count);
      core::Prepared run = sta_bench();
      const std::vector<RcCorner> corners = corners_of(count, derived);
      CornerSet set(*run.rc, corners);
      TimingGraph graph;
      graph.build(*run.state, set);
      expect_each_corner_times_alone(graph, run, corners);

      flip_first_segment(run.state.get(), worst_endpoint_net(graph));
      graph.update(*run.state);
      expect_each_corner_times_alone(graph, run, corners);
    }
  }
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
