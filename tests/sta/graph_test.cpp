#include "src/sta/timing_graph.hpp"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "src/timing/elmore.hpp"
#include "tests/sta/sta_test_util.hpp"

namespace cpla::sta {
namespace {

TEST(TimingGraphBuild, NodeLayoutMirrorsTheRoutedDesign) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  ASSERT_TRUE(graph.built());
  ASSERT_EQ(graph.num_corners(), 3);

  int expected_nodes = 0;
  for (int n = 0; n < run.state->num_nets(); ++n) {
    const route::SegTree& tree = run.state->tree(n);
    const bool present = !tree.segs.empty() || !tree.sinks.empty();
    ASSERT_EQ(graph.has_net(n), present) << n;
    if (!present) continue;
    expected_nodes += 1 + static_cast<int>(tree.sinks.size());

    const NodeId driver = graph.driver_node(n);
    EXPECT_EQ(graph.kind(driver), NodeKind::kDriver);
    EXPECT_EQ(graph.node_net(driver), n);
    EXPECT_EQ(graph.node_sink(driver), -1);
    for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
      const NodeId sink = graph.sink_node(n, k);
      EXPECT_EQ(graph.kind(sink), NodeKind::kSink);
      EXPECT_EQ(graph.node_net(sink), n);
      EXPECT_EQ(graph.node_sink(sink), k);
    }
  }
  EXPECT_EQ(graph.num_nodes(), expected_nodes);
  EXPECT_GT(graph.num_edges(), 0);
  EXPECT_GT(graph.num_levels(), 1);
}

TEST(TimingGraphBuild, EnabledEdgesAlwaysGoLevelUp) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int e = 0; e < graph.num_edges(); ++e) {
    if (!graph.edge_enabled(e)) continue;
    EXPECT_LT(graph.level(graph.edge_from(e)), graph.level(graph.edge_to(e))) << "edge " << e;
  }
  // Endpoints really have no enabled out-edges, and the list is ascending.
  ASSERT_FALSE(graph.endpoints().empty());
  EXPECT_TRUE(std::is_sorted(graph.endpoints().begin(), graph.endpoints().end()));
  for (const NodeId v : graph.endpoints()) {
    for (int e = graph.out_edge_begin(v); e < graph.out_edge_end(v); ++e) {
      EXPECT_FALSE(graph.edge_enabled(e)) << "endpoint " << v;
    }
  }
}

TEST(TimingGraphBuild, NetEdgeDelaysAreTheCornersElmoreDelays) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!graph.has_net(n)) continue;
    const route::SegTree& tree = run.state->tree(n);
    for (int c = 0; c < set.size(); ++c) {
      const timing::NetTiming nt =
          timing::compute_timing(tree, run.state->layers(n), set.rc(c));
      const NodeId driver = graph.driver_node(n);
      for (int k = 0; k < static_cast<int>(tree.sinks.size()); ++k) {
        // Drivers carry exactly their net edges, in sink order.
        const int e = graph.out_edge_begin(driver) + k;
        ASSERT_LT(e, graph.out_edge_end(driver));
        EXPECT_EQ(graph.edge_to(e), graph.sink_node(n, k));
        EXPECT_TRUE(same_bits(graph.edge_delay(c, e), nt.sink_delay[k]))
            << "net " << n << " sink " << k << " corner " << c;
      }
    }
  }
}

TEST(TimingGraphBuild, ArrivalIsTheMaxOverEnabledInEdges) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int c = 0; c < graph.num_corners(); ++c) {
    for (int v = 0; v < graph.num_nodes(); ++v) {
      double expect = 0.0;
      for (int i = 0; i < graph.in_degree(v); ++i) {
        const int e = graph.in_edge(v, i);
        if (!graph.edge_enabled(e)) continue;
        expect = std::max(expect, graph.arrival(c, graph.edge_from(e)) + graph.edge_delay(c, e));
      }
      EXPECT_TRUE(same_bits(graph.arrival(c, v), expect)) << "corner " << c << " node " << v;
    }
  }
}

TEST(TimingGraphTiming, SlackIsRequiredMinusArrivalAndMergesWorstCorner) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int v = 0; v < graph.num_nodes(); ++v) {
    double worst = std::numeric_limits<double>::infinity();
    for (int c = 0; c < graph.num_corners(); ++c) {
      EXPECT_TRUE(same_bits(graph.slack(c, v), graph.required(c, v) - graph.arrival(c, v)))
          << "corner " << c << " node " << v;
      worst = std::min(worst, graph.slack(c, v));
    }
    EXPECT_EQ(graph.worst_slack(v), worst) << v;
  }

  // worst_slack() is the endpoint minimum of the merged slack.
  double endpoint_worst = std::numeric_limits<double>::infinity();
  for (const NodeId v : graph.endpoints()) {
    endpoint_worst = std::min(endpoint_worst, graph.worst_slack(v));
  }
  EXPECT_EQ(graph.worst_slack(), endpoint_worst);
}

TEST(TimingGraphTiming, DerivedCornersZeroTheirWorstEndpoint) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int c = 0; c < graph.num_corners(); ++c) {
    double worst_arrival = 0.0;
    double min_slack = std::numeric_limits<double>::infinity();
    for (const NodeId v : graph.endpoints()) {
      worst_arrival = std::max(worst_arrival, graph.arrival(c, v));
      min_slack = std::min(min_slack, graph.slack(c, v));
      // Endpoints are required exactly at the corner budget.
      EXPECT_EQ(graph.required(c, v), graph.corner_required(c)) << "corner " << c;
    }
    if (set.corner(c).required_time < 0.0) {
      // Derived budget: the worst endpoint sits at exactly zero slack.
      EXPECT_EQ(graph.corner_required(c), worst_arrival) << set.corner(c).name;
      EXPECT_EQ(min_slack, 0.0) << set.corner(c).name;
    } else {
      EXPECT_EQ(graph.corner_required(c), set.corner(c).required_time) << set.corner(c).name;
    }
  }
}

TEST(TimingGraphTiming, SlowCornerDominatesFastCorner) {
  core::Prepared run = sta_bench();
  // three_corners(): corner 0 scales everything up, corner 1 scales down.
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_GE(graph.arrival(0, v), graph.arrival(1, v)) << v;
  }
}

TEST(TimingGraphTiming, NetSlackIsTheMinOverTheNetsNodes) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!graph.has_net(n)) {
      EXPECT_EQ(graph.net_slack(n), std::numeric_limits<double>::infinity());
      continue;
    }
    double expect = graph.worst_slack(graph.driver_node(n));
    const int sinks = static_cast<int>(run.state->tree(n).sinks.size());
    for (int k = 0; k < sinks; ++k) {
      expect = std::min(expect, graph.worst_slack(graph.sink_node(n, k)));
    }
    EXPECT_EQ(graph.net_slack(n), expect) << n;
  }
}

}  // namespace
}  // namespace cpla::sta
