#include "src/route/router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/obs/metrics.hpp"
#include "src/route/maze.hpp"
#include "src/util/logging.hpp"

namespace cpla::route {
namespace {

grid::Design small_design(int cap = 10) {
  grid::GridGraph g(12, 12, grid::make_layer_stack(4), grid::default_geom());
  for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, cap);
  return grid::Design("test", std::move(g));
}

/// True if the route connects all of the net's distinct pin cells.
bool connects_all_pins(const grid::GridGraph& g, const grid::Net& net, const NetRoute& r) {
  const auto cells = net.distinct_cells();
  if (cells.size() < 2) return true;
  std::unordered_map<int, std::vector<int>> adj;
  const int xs1 = g.xsize() - 1;
  const int ys1 = g.ysize() - 1;
  for (int id : r.h_edges) {
    const int y = id / xs1, x = id % xs1;
    adj[g.cell_id(x, y)].push_back(g.cell_id(x + 1, y));
    adj[g.cell_id(x + 1, y)].push_back(g.cell_id(x, y));
  }
  for (int id : r.v_edges) {
    const int x = id / ys1, y = id % ys1;
    adj[g.cell_id(x, y)].push_back(g.cell_id(x, y + 1));
    adj[g.cell_id(x, y + 1)].push_back(g.cell_id(x, y));
  }
  std::unordered_set<int> visited;
  std::queue<int> queue;
  queue.push(g.cell_id(cells[0].x, cells[0].y));
  visited.insert(queue.front());
  while (!queue.empty()) {
    const int c = queue.front();
    queue.pop();
    for (int n : adj[c]) {
      if (visited.insert(n).second) queue.push(n);
    }
  }
  for (const auto& pin : cells) {
    if (!visited.count(g.cell_id(pin.x, pin.y))) return false;
  }
  return true;
}

TEST(MazeRoute, StraightShotOnEmptyGrid) {
  const grid::Design d = small_design();
  Usage2D usage(d.grid);
  NetRoute out;
  ASSERT_TRUE(
      MazeRouter().route(d.grid, usage, {d.grid.cell_id(1, 5)}, d.grid.cell_id(9, 5), &out));
  EXPECT_EQ(out.h_edges.size(), 8u);
  EXPECT_TRUE(out.v_edges.empty());
}

TEST(MazeRoute, DetoursAroundCongestion) {
  const grid::Design d = small_design(2);
  Usage2D usage(d.grid);
  // Saturate the direct corridor (y=5) between x=3..7.
  NetRoute blocker;
  for (int x = 3; x < 7; ++x) blocker.add_h(d.grid.h_edge_id(x, 5));
  const int cap = usage.h_cap(d.grid.h_edge_id(3, 5));
  for (int i = 0; i < cap; ++i) usage.add(blocker, +1);

  NetRoute out;
  ASSERT_TRUE(
      MazeRouter().route(d.grid, usage, {d.grid.cell_id(1, 5)}, d.grid.cell_id(9, 5), &out));
  // Must leave row 5 to avoid the saturated edges.
  EXPECT_FALSE(out.v_edges.empty());
  for (int id : out.h_edges) {
    EXPECT_EQ(usage.h_usage(id) < usage.h_cap(id), true) << "routed into full edge";
  }
}

TEST(MazeRoute, MultiSourceTerminatesAtNearest) {
  const grid::Design d = small_design();
  Usage2D usage(d.grid);
  NetRoute out;
  ASSERT_TRUE(MazeRouter().route(d.grid, usage, {d.grid.cell_id(0, 0), d.grid.cell_id(8, 8)},
                                 d.grid.cell_id(9, 9), &out));
  EXPECT_EQ(out.wirelength(), 2u);  // from (8,8), not (0,0)
}

TEST(Router, AllNetsConnected) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 4;
  spec.seed = 3;
  const grid::Design d = gen::generate(spec);
  const RoutingResult rr = route_all(d);
  ASSERT_EQ(rr.routes.size(), d.nets.size());
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    EXPECT_TRUE(connects_all_pins(d.grid, d.nets[n], rr.routes[n])) << d.nets[n].name;
  }
}

TEST(Router, SingleCellNetsGetEmptyRoutes) {
  grid::Design d = small_design();
  grid::Net net;
  net.id = 0;
  net.name = "loop";
  net.pins = {grid::Pin{3, 3, 0}, grid::Pin{3, 3, 0}};
  d.nets.push_back(net);
  const RoutingResult rr = route_all(d);
  EXPECT_TRUE(rr.routes[0].empty());
}

TEST(Router, NegotiationReducesOverflow) {
  // Dense instance on a tight grid: initial pattern routing overflows;
  // negotiation should remove all or nearly all of it.
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 400;
  spec.num_layers = 4;
  spec.tracks_per_layer = 6;
  spec.seed = 11;
  const grid::Design d = gen::generate(spec);

  RouterOptions no_negotiation;
  no_negotiation.max_negotiation_rounds = 0;
  const long before = route_all(d, no_negotiation).overflow;

  const long after = route_all(d).overflow;
  EXPECT_LE(after, before);
}

TEST(Router, NegativeHistoryStepIsRejected) {
  const grid::Design d = small_design();
  RouterOptions options;
  options.history_step = -0.5;
  EXPECT_DEATH(route_all(d, options), "history_step");
}

/// FNV-1a over every net's normalized route (h edges, a separator, v edges,
/// a net separator).
std::uint64_t routes_hash(const RoutingResult& rr) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t v) { hash = (hash ^ v) * 0x100000001b3ull; };
  for (const NetRoute& r : rr.routes) {
    for (int id : r.h_edges) mix(static_cast<std::uint64_t>(id) + 1);
    mix(0xfeu);
    for (int id : r.v_edges) mix(static_cast<std::uint64_t>(id) + 1);
    mix(0xffu);
  }
  return hash;
}

// Every route of the two suite designs the benchmark flows start from, and
// the number of rip-up reroutes that produced them, captured from the
// binary-heap maze router this one replaced: a change to the router's
// search may make it faster, never move a route.
TEST(Router, GoldenRoutes) {
  struct Golden {
    const char* design;
    std::uint64_t hash;
    std::int64_t reroutes;
  };
  const Golden goldens[] = {
      {"newblue1", 2360650808410846246ull, 430},
      {"adaptec1", 3370099097294850883ull, 829},
  };
  obs::Counter& reroutes = obs::metrics().counter("route.ripup.reroutes");
  for (const Golden& golden : goldens) {
    const grid::Design d = gen::generate(gen::suite_spec(golden.design));
    const std::int64_t before = reroutes.value();
    const RoutingResult rr = route_all(d);
    EXPECT_EQ(routes_hash(rr), golden.hash) << golden.design;
    EXPECT_EQ(reroutes.value() - before, golden.reroutes) << golden.design;
  }
}

}  // namespace
}  // namespace cpla::route
