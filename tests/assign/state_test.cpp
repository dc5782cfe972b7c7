#include "src/assign/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "src/grid/layer_stack.hpp"
#include "src/util/rng.hpp"

namespace cpla::assign {
namespace {

struct Fixture {
  grid::Design design;
  Fixture() : design("t", make_grid()) {}

  static grid::GridGraph make_grid() {
    grid::GridGraph g(12, 12, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 4);
    return g;
  }

  /// L-shaped 2-pin net from (1,1) to (5,4).
  route::SegTree l_net(int id = 0) {
    grid::Net net;
    net.id = id;
    net.pins = {grid::Pin{1, 1, 0}, grid::Pin{5, 4, 0}};
    route::NetRoute r;
    for (int x = 1; x < 5; ++x) r.add_h(design.grid.h_edge_id(x, 1));
    for (int y = 1; y < 4; ++y) r.add_v(design.grid.v_edge_id(5, y));
    return route::extract_tree(design.grid, net, &r);
  }
};

TEST(AssignState, UsageAppliedAndRemoved) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  ASSERT_EQ(state.num_nets(), 1);
  EXPECT_FALSE(state.assigned(0));

  state.set_layers(0, {0, 1});  // H seg on layer 0, V seg on layer 1
  EXPECT_TRUE(state.assigned(0));
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 1);
  EXPECT_EQ(state.wire_usage(1, f.design.grid.v_edge_id(5, 2)), 1);
  // Vias: source 0->0 none; junction 0->1 adjacent (no intermediate);
  // sink 1->0 one crossing. via_count counts crossings: 0 + 1 + 1.
  EXPECT_EQ(state.via_count(), 2);

  state.clear_net(0);
  EXPECT_FALSE(state.assigned(0));
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 0);
  EXPECT_EQ(state.via_count(), 0);
}

TEST(AssignState, TrackUsageCoversCells) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {2, 1});
  // H segment (1,1)-(5,1) on layer 2 covers cells x=1..5 at y=1.
  for (int x = 1; x <= 5; ++x) {
    EXPECT_EQ(state.track_usage(2, f.design.grid.cell_id(x, 1)), 1) << x;
  }
  EXPECT_EQ(state.track_usage(2, f.design.grid.cell_id(6, 1)), 0);
}

TEST(AssignState, IntermediateViaLayersAccrueUsage) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 3});  // junction via 0 -> 3 passes layers 1 and 2
  const int junction = f.design.grid.cell_id(5, 1);
  EXPECT_EQ(state.via_usage(1, junction), 1);
  EXPECT_EQ(state.via_usage(2, junction), 1);
  EXPECT_EQ(state.via_usage(3, junction), 0);
  EXPECT_EQ(state.via_usage(0, junction), 0);
  // Sink via 3 -> 0 at (5,4) passes layers 1, 2.
  const int sink_cell = f.design.grid.cell_id(5, 4);
  EXPECT_EQ(state.via_usage(1, sink_cell), 1);
  EXPECT_EQ(state.via_usage(2, sink_cell), 1);
  // via_count: source 0 + junction 3 + sink 3.
  EXPECT_EQ(state.via_count(), 6);
}

TEST(AssignState, ReassignReplacesUsage) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 1});
  state.set_layers(0, {2, 3});
  EXPECT_EQ(state.wire_usage(0, f.design.grid.h_edge_id(2, 1)), 0);
  EXPECT_EQ(state.wire_usage(2, f.design.grid.h_edge_id(2, 1)), 1);
}

TEST(AssignState, WireOverflowCounts) {
  Fixture f;
  // Five identical nets through the same corridor, capacity 4.
  std::vector<route::SegTree> trees;
  for (int i = 0; i < 5; ++i) trees.push_back(f.l_net(i));
  AssignState state(&f.design, std::move(trees));
  for (int i = 0; i < 5; ++i) state.set_layers(i, {0, 1});
  // Each of the 4 h-edges and 3 v-edges is over by 1.
  EXPECT_EQ(state.wire_overflow(), 7);
  state.set_layers(4, {2, 3});
  EXPECT_EQ(state.wire_overflow(), 0);
}

TEST(AssignState, DirectionMismatchAborts) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  EXPECT_DEATH(state.set_layers(0, {1, 1}), "direction");
}

TEST(AssignState, AllowedLayersSplitByDirection) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  EXPECT_EQ(state.allowed_layers(true), (std::vector<int>{0, 2}));
  EXPECT_EQ(state.allowed_layers(false), (std::vector<int>{1, 3}));
}

TEST(AssignState, ViaLoadCombinesViasAndTracks) {
  Fixture f;
  AssignState state(&f.design, {f.l_net()});
  state.set_layers(0, {0, 3});
  const int junction = f.design.grid.cell_id(5, 1);
  // Layer 1: one via crossing, no tracks on layer 1 at that cell.
  EXPECT_EQ(state.via_load(1, junction), 1);
  // Layer 0: the H wire crosses the junction cell -> nv tracks-worth.
  EXPECT_EQ(state.via_load(0, junction), state.nv());
}

// The overflow totals recomputed from the public per-slot accessors.
long wire_overflow_by_slots(const AssignState& state) {
  const auto& g = state.design().grid;
  long sum = 0;
  for (int l = 0; l < g.num_layers(); ++l) {
    for (int e = 0; e < g.num_edges_on_layer(l); ++e) {
      sum += std::max(0, state.wire_usage(l, e) - state.wire_cap(l, e));
    }
  }
  return sum;
}

long via_overflow_by_slots(const AssignState& state) {
  const auto& g = state.design().grid;
  long sum = 0;
  for (int l = 0; l < g.num_layers(); ++l) {
    for (int c = 0; c < g.num_cells(); ++c) {
      sum += std::max(0, state.via_load(l, c) - state.via_cap(l, c));
    }
  }
  return sum;
}

/// Random two-pin L route (horizontal leg first) with random pin layers.
route::SegTree random_tree(const grid::GridGraph& g, Rng* rng) {
  grid::Net net;
  int x0, y0, x1, y1;
  do {
    x0 = static_cast<int>(rng->uniform_int(0, g.xsize() - 1));
    y0 = static_cast<int>(rng->uniform_int(0, g.ysize() - 1));
    x1 = static_cast<int>(rng->uniform_int(0, g.xsize() - 1));
    y1 = static_cast<int>(rng->uniform_int(0, g.ysize() - 1));
  } while (x0 == x1 && y0 == y1);
  const int top = g.num_layers() - 1;
  net.pins = {grid::Pin{x0, y0, static_cast<int>(rng->uniform_int(0, top))},
              grid::Pin{x1, y1, static_cast<int>(rng->uniform_int(0, top))}};
  route::NetRoute r;
  for (int x = std::min(x0, x1); x < std::max(x0, x1); ++x) r.add_h(g.h_edge_id(x, y0));
  for (int y = std::min(y0, y1); y < std::max(y0, y1); ++y) r.add_v(g.v_edge_id(x1, y));
  return route::extract_tree(g, net, &r);
}

/// A random legal assignment for `tree` (each segment on a random layer of
/// its direction).
std::vector<int> random_layers(const AssignState& state, const route::SegTree& tree, Rng* rng) {
  std::vector<int> layers(tree.segs.size());
  for (const route::Segment& s : tree.segs) {
    const std::vector<int>& allowed = state.allowed_layers(s.horizontal);
    layers[s.id] = allowed[rng->uniform_int(0, static_cast<std::int64_t>(allowed.size()) - 1)];
  }
  return layers;
}

TEST(AssignState, OverflowTotalsMatchSlotSumsUnderRandomEdits) {
  // Tight capacities so most edits move the totals; capacity writes go to
  // the shared grid behind the states' backs, as ECO edits do.
  grid::GridGraph g(10, 10, grid::make_layer_stack(4), grid::default_geom());
  for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 2);
  grid::Design design("prop", std::move(g));
  const grid::GridGraph& grid = design.grid;
  Rng rng(0x5eed0a55u);

  std::vector<route::SegTree> trees;
  for (int i = 0; i < 24; ++i) trees.push_back(random_tree(grid, &rng));
  AssignState state(&design, std::move(trees));
  for (int net = 0; net < state.num_nets(); ++net) {
    state.set_layers(net, random_layers(state, state.tree(net), &rng));
  }
  std::optional<AssignState> copy;

  auto check = [&](const AssignState& s, int step, const char* which) {
    ASSERT_EQ(s.wire_overflow(), wire_overflow_by_slots(s)) << which << " step " << step;
    ASSERT_EQ(s.via_overflow(), via_overflow_by_slots(s)) << which << " step " << step;
  };

  for (int step = 0; step < 400; ++step) {
    AssignState& s = copy.has_value() && rng.chance(0.5) ? *copy : state;
    const int net = static_cast<int>(rng.uniform_int(0, s.num_nets() - 1));
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1:
        if (!s.tree(net).segs.empty()) {
          s.set_layers(net, random_layers(s, s.tree(net), &rng));
        }
        break;
      case 2:
        s.clear_net(net);
        break;
      case 3: {
        route::SegTree tree = random_tree(grid, &rng);
        std::vector<int> layers = rng.chance(0.5) ? random_layers(s, tree, &rng)
                                                  : std::vector<int>{};
        s.replace_tree(net, std::move(tree), std::move(layers));
        break;
      }
      case 4:
        s.add_net(random_tree(grid, &rng));
        break;
      case 5:
        s.remove_net(net);
        break;
      case 6: {
        const int l = static_cast<int>(rng.uniform_int(0, grid.num_layers() - 1));
        const int e = static_cast<int>(rng.uniform_int(0, grid.num_edges_on_layer(l) - 1));
        design.grid.set_edge_capacity(l, e, static_cast<int>(rng.uniform_int(0, 3)));
        break;
      }
      case 7:
        if (rng.chance(0.2)) {
          copy = state;  // the copy carries the totals and the capacity stamp
        } else {
          design.grid.fill_layer_capacity(static_cast<int>(rng.uniform_int(0, 3)),
                                          static_cast<int>(rng.uniform_int(0, 3)));
        }
        break;
    }
    check(state, step, "state");
    if (copy.has_value()) check(*copy, step, "copy");
    if (::testing::Test::HasFailure()) return;
  }
  ASSERT_TRUE(copy.has_value());
}

}  // namespace
}  // namespace cpla::assign
