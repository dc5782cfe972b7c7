#include "src/core/displace.hpp"

#include <gtest/gtest.h>

#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"

namespace cpla::core {
namespace {

// Hand-built scenario: a critical net blocked below a top layer that is
// fully occupied by short non-critical nets; displacement must clear it.
class DisplaceTest : public ::testing::Test {
 protected:
  DisplaceTest() : design_("d", make_grid()) {}

  static grid::GridGraph make_grid() {
    grid::GridGraph g(16, 16, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 2);
    return g;
  }

  route::SegTree h_net(int id, int y, int x0, int x1) {
    grid::Net net;
    net.id = id;
    net.pins = {grid::Pin{x0, y, 0}, grid::Pin{x1, y, 0}};
    route::NetRoute r;
    for (int x = x0; x < x1; ++x) r.add_h(design_.grid.h_edge_id(x, y));
    return route::extract_tree(design_.grid, net, &r);
  }

  grid::Design design_;
};

TEST_F(DisplaceTest, ClearsBlockedTopLayer) {
  // Net 0: long critical net on layer 0 along y=2.
  // Nets 1, 2: short nets filling layer 2 (cap 2) over the same edges.
  std::vector<route::SegTree> trees;
  trees.push_back(h_net(0, 2, 1, 13));
  trees.push_back(h_net(1, 2, 1, 13));
  trees.push_back(h_net(2, 2, 1, 13));
  assign::AssignState state(&design_, std::move(trees));
  state.set_layers(0, {0});
  state.set_layers(1, {2});
  state.set_layers(2, {2});

  timing::RcTable rc(design_.grid);
  CriticalSet critical;
  critical.nets = {0};
  critical.released.assign(3, 0);
  critical.released[0] = 1;

  // Layer 2 over the corridor is full (cap 2, usage 2): the critical net
  // cannot move up until a victim is displaced.
  EXPECT_EQ(state.wire_usage(2, design_.grid.h_edge_id(5, 2)), 2);

  DisplaceOptions opt;
  opt.min_criticality = 0.0;  // the single net is trivially critical
  // Victims are 12 tiles long, below the default displacement cutoff.
  const int moved =
      make_headroom(&state, critical, freeze_timing(state, rc, critical.nets, {}), opt);
  EXPECT_GE(moved, 1);
  EXPECT_LT(state.wire_usage(2, design_.grid.h_edge_id(5, 2)), 2);
  // No overflow introduced anywhere.
  EXPECT_EQ(state.wire_overflow(), 0);
}

TEST_F(DisplaceTest, NoOpWhenNothingBlocked) {
  std::vector<route::SegTree> trees;
  trees.push_back(h_net(0, 2, 1, 13));
  trees.push_back(h_net(1, 8, 1, 13));  // far away
  assign::AssignState state(&design_, std::move(trees));
  state.set_layers(0, {0});
  state.set_layers(1, {2});

  timing::RcTable rc(design_.grid);
  CriticalSet critical;
  critical.nets = {0};
  critical.released.assign(2, 0);
  critical.released[0] = 1;

  DisplaceOptions opt;
  opt.min_criticality = 0.0;
  EXPECT_EQ(make_headroom(&state, critical, freeze_timing(state, rc, critical.nets, {}), opt), 0);
  EXPECT_EQ(state.layers(1), (std::vector<int>{2}));
}

TEST(Displace, NeverWorsensOverflowOnBenchmark) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = 71;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const long wire_before = bench.state->wire_overflow();
  const long via_before = bench.state->via_overflow();
  make_headroom(bench.state.get(), critical,
                freeze_timing(*bench.state, *bench.rc, critical.nets, {}));
  EXPECT_LE(bench.state->wire_overflow(), wire_before);
  EXPECT_LE(bench.state->via_overflow(), via_before);
}

TEST(Displace, ReleasedNetsAreNeverVictims) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = 72;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  std::vector<std::vector<int>> released_before;
  for (int net : critical.nets) released_before.push_back(bench.state->layers(net));
  make_headroom(bench.state.get(), critical,
                freeze_timing(*bench.state, *bench.rc, critical.nets, {}));
  for (std::size_t i = 0; i < critical.nets.size(); ++i) {
    EXPECT_EQ(bench.state->layers(critical.nets[i]), released_before[i]);
  }
}

}  // namespace
}  // namespace cpla::core
