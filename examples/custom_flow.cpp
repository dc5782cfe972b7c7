// Custom-flow example: build a design programmatically (no generator, no
// benchmark file), run every pipeline stage by hand, and drive the CPLA
// flow with non-default options — the "library API" path a downstream
// integration would take.

#include <cstdio>

#include "examples/common.hpp"
#include "src/assign/initial_assign.hpp"
#include "src/core/critical.hpp"
#include "src/core/flow.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/route/router.hpp"
#include "src/route/seg_tree.hpp"
#include "src/timing/elmore.hpp"

int main() {
  using namespace cpla;

  // 1. A 20x20 grid with a 6-layer alternating stack, 8 tracks per layer,
  //    and a congested column (capacity 2) splitting the die.
  grid::GridGraph g(20, 20, grid::make_layer_stack(6), grid::default_geom());
  for (int l = 0; l < 6; ++l) g.fill_layer_capacity(l, 8);
  for (int l = 0; l < 6; ++l) {
    if (!g.is_horizontal(l)) continue;
    for (int y = 0; y < 20; ++y) g.set_edge_capacity(l, g.h_edge_id(9, y), 2);
  }
  grid::Design design("handbuilt", std::move(g));

  // 2. A few hand-placed nets: one long cross-die bus, some local traffic.
  auto add_net = [&design](std::vector<grid::Pin> pins) {
    grid::Net net;
    net.id = static_cast<int>(design.nets.size());
    net.name = "n";  // two steps: gcc 12 -Wrestrict false positive (PR105651)
    net.name += std::to_string(net.id);
    net.pins = std::move(pins);
    design.nets.push_back(std::move(net));
  };
  for (int i = 0; i < 8; ++i) {
    add_net({{1, 2 + i * 2, 0}, {18, 3 + i * 2, 0}});  // cross-die, crosses the choke
  }
  add_net({{2, 2, 0}, {4, 3, 0}, {3, 6, 0}, {6, 4, 0}});  // local multi-pin
  add_net({{15, 15, 0}, {17, 18, 0}});
  add_net({{5, 10, 0}, {5, 10, 0}});  // degenerate: both pins in one GCell

  // 3. Route, extract segment trees, initial layer assignment.
  route::RoutingResult routed = route::route_all(design);
  std::vector<route::SegTree> trees;
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    trees.push_back(route::extract_tree(design.grid, design.nets[n], &routed.routes[n]));
  }
  assign::AssignState state(&design, std::move(trees));
  assign::initial_assign(&state);

  timing::RcTable rc(design.grid);
  rc.set_driver_res(8.0);
  rc.set_sink_cap(2.5);

  // 4. Release the 4 worst nets and run CPLA with a tight partition cap.
  const core::CriticalSet critical = core::select_critical(state, rc, 4.0 / design.nets.size());
  const core::LaMetrics before = core::compute_metrics(state, rc, critical);

  core::CplaOptions opt;
  opt.partition.k = 2;
  opt.partition.max_segments = 6;
  opt.max_rounds = 6;
  opt.model.branch_weight = 0.5;
  const core::CplaResult result = core::run_cpla(&state, rc, critical, opt);

  // 5. Report.
  std::printf("hand-built design: %zu nets, 2-D overflow %ld\n", design.nets.size(),
              routed.overflow);
  std::printf("released nets:");
  for (int net : critical.nets) std::printf(" %d", net);
  std::printf("\n");
  examples::MetricTable table;
  table.add("initial", before, 0.0);
  table.add("CPLA", result.metrics, 0.0);
  table.print();
  std::printf("(%d rounds, %d partitions)\n", result.rounds, result.partitions_solved);

  const double gain = 100.0 * (1.0 - result.metrics.avg_tcp / before.avg_tcp);
  std::printf("critical-path average improved by %.1f%%\n", gain);
  return 0;
}
