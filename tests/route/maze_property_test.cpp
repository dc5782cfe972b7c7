// Seeded property test: route::MazeRouter (bound-pruned, bucket-queued)
// must return exactly the route the plain binary-heap Dijkstra in
// maze_oracle.hpp returns — the same unit edges in the same order — on
// random grids, capacities, usage and history. A third of the cases use
// zero history and integer edge costs, where equal-cost paths abound and
// only an exact replay of the heap's (cost, state) order picks the same one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/grid/grid_graph.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/route/maze.hpp"
#include "src/util/rng.hpp"
#include "tests/route/maze_oracle.hpp"

namespace cpla::route {
namespace {

int pick(Rng* rng, int lo, int hi) { return static_cast<int>(rng->uniform_int(lo, hi)); }

/// Adds `times` wires on one edge.
void load_edge(Usage2D* usage, bool horizontal, int id, int times) {
  NetRoute r;
  if (horizontal) {
    r.add_h(id);
  } else {
    r.add_v(id);
  }
  for (int i = 0; i < times; ++i) usage->add(r, +1);
}

/// A connected random walk of cells (a grown net component) or, with
/// scattered = true, unrelated cells; duplicates removed.
std::vector<int> random_sources(const grid::GridGraph& g, Rng* rng, bool scattered) {
  const int count = pick(rng, 1, 24);
  std::vector<int> cells;
  int x = pick(rng, 0, g.xsize() - 1);
  int y = pick(rng, 0, g.ysize() - 1);
  for (int i = 0; i < count; ++i) {
    if (scattered) {
      x = pick(rng, 0, g.xsize() - 1);
      y = pick(rng, 0, g.ysize() - 1);
    } else if (i > 0) {
      if (rng->chance(0.5)) {
        x = std::clamp(x + (rng->chance(0.5) ? 1 : -1), 0, g.xsize() - 1);
      } else {
        y = std::clamp(y + (rng->chance(0.5) ? 1 : -1), 0, g.ysize() - 1);
      }
    }
    cells.push_back(g.cell_id(x, y));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// A cell at Manhattan distance `gap` from `from`, or the nearest distance
/// the grid allows.
int cell_at_distance(const grid::GridGraph& g, int from, int gap, Rng* rng) {
  const int fx = from % g.xsize();
  const int fy = from / g.xsize();
  for (int tries = 0; tries < 64; ++tries) {
    const int dx = pick(rng, 0, gap);
    const int x = fx + (rng->chance(0.5) ? dx : -dx);
    const int y = fy + (rng->chance(0.5) ? gap - dx : dx - gap);
    if (x >= 0 && x < g.xsize() && y >= 0 && y < g.ysize()) return g.cell_id(x, y);
  }
  return gap == 0 ? from : cell_at_distance(g, from, gap - 1, rng);
}

TEST(MazeRouteProperty, MatchesTheHeapDijkstraOracleRouteForRoute) {
  Rng rng(0x4d415a45ull);
  MazeRouter router;  // one router across every case: its storage is reused
  int cases = 0, ties_mode = 0, multi_source = 0, long_routes = 0;
  for (int grid_case = 0; grid_case < 600; ++grid_case) {
    const int xs = pick(&rng, 3, 40);
    const int ys = pick(&rng, 3, 40);
    const int num_layers = rng.chance(0.5) ? 2 : 4;
    grid::GridGraph g(xs, ys, grid::make_layer_stack(num_layers), grid::default_geom());
    for (int l = 0; l < num_layers; ++l) {
      g.fill_layer_capacity(l, pick(&rng, 0, 4));
      for (int e = 0; e < g.num_edges_on_layer(l); ++e) {
        if (rng.chance(0.3)) g.set_edge_capacity(l, e, pick(&rng, 0, 6));
      }
    }
    Usage2D usage(g);
    // Integer costs: an edge is idle (cost 1) or at/over capacity (9 + 4k),
    // and history stays 0.
    const bool integer_costs = grid_case % 3 == 0;
    ties_mode += integer_costs;
    for (int round = 0; round < (integer_costs ? 1 : 3); ++round) {
      for (int id = 0; id < g.num_h_edges(); ++id) {
        if (!rng.chance(0.3)) continue;
        const int cap = usage.h_cap(id) - usage.h_usage(id);
        load_edge(&usage, true, id,
                  integer_costs ? std::max(0, cap) + pick(&rng, 0, 2) : pick(&rng, 0, 3));
      }
      for (int id = 0; id < g.num_v_edges(); ++id) {
        if (!rng.chance(0.3)) continue;
        const int cap = usage.v_cap(id) - usage.v_usage(id);
        load_edge(&usage, false, id,
                  integer_costs ? std::max(0, cap) + pick(&rng, 0, 2) : pick(&rng, 0, 3));
      }
      if (!integer_costs) usage.bump_history(rng.uniform(0.0, 3.0));
    }

    for (int query = 0; query < 4; ++query) {
      const std::vector<int> sources = random_sources(g, &rng, rng.chance(0.3));
      const int gap = pick(&rng, 0, 60);
      const int target =
          cell_at_distance(g, sources[static_cast<std::size_t>(pick(
                                  &rng, 0, static_cast<int>(sources.size()) - 1))],
                           gap, &rng);
      NetRoute got, want;
      ASSERT_TRUE(router.route(g, usage, sources, target, &got));
      ASSERT_TRUE(oracle::heap_maze_route(g, usage, sources, {target}, &want));
      ASSERT_EQ(got.h_edges, want.h_edges)
          << "grid " << xs << "x" << ys << " case " << grid_case << " query " << query;
      ASSERT_EQ(got.v_edges, want.v_edges)
          << "grid " << xs << "x" << ys << " case " << grid_case << " query " << query;
      ++cases;
      multi_source += sources.size() > 1;
      long_routes += got.wirelength() >= 30;
    }
  }
  RecordProperty("cases", cases);
  EXPECT_GE(cases, 2000);
  EXPECT_GE(ties_mode, 150);
  EXPECT_GE(multi_source, 1000);
  EXPECT_GE(long_routes, 100);
}

TEST(MazeRouteProperty, TargetInsideTheSourceSetGivesAnEmptyRoute) {
  grid::GridGraph g(9, 7, grid::make_layer_stack(4), grid::default_geom());
  for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 2);
  const Usage2D usage(g);
  NetRoute out;
  ASSERT_TRUE(
      MazeRouter().route(g, usage, {g.cell_id(1, 1), g.cell_id(4, 4)}, g.cell_id(4, 4), &out));
  EXPECT_TRUE(out.empty());
}

// An L path summed edge by edge can land an ulp below a partial sum plus
// the rest of its Manhattan distance: 4/3 followed by seven unit edges sums
// to 1.8e-15 less than 4/3 + 7. The pruning margin must absorb that, or the
// only cheapest path is cut at its first step.
TEST(MazeRouteProperty, PruningMarginAbsorbsRounding) {
  grid::GridGraph g(12, 3, grid::make_layer_stack(2), grid::default_geom());
  const int h_layer = g.is_horizontal(0) ? 0 : 1;
  for (int l = 0; l < 2; ++l) g.fill_layer_capacity(l, 4);
  g.set_edge_capacity(h_layer, g.h_edge_id(0, 1), 3);
  Usage2D usage(g);
  load_edge(&usage, true, g.h_edge_id(0, 1), 2);
  ASSERT_EQ(usage.h_cost(g.h_edge_id(0, 1)), 1.0 + 1.0 / 3.0);

  NetRoute got, want;
  ASSERT_TRUE(MazeRouter().route(g, usage, {g.cell_id(0, 1)}, g.cell_id(8, 1), &got));
  ASSERT_TRUE(oracle::heap_maze_route(g, usage, {g.cell_id(0, 1)}, {g.cell_id(8, 1)}, &want));
  EXPECT_EQ(got.h_edges, want.h_edges);
  EXPECT_EQ(got.v_edges, want.v_edges);
  EXPECT_EQ(got.h_edges.size(), 8u);
}

}  // namespace
}  // namespace cpla::route
