#include "src/route/router.hpp"

#include <algorithm>
#include <numeric>

#include "src/obs/metrics.hpp"
#include "src/route/maze.hpp"
#include "src/route/topology.hpp"
#include "src/util/check.hpp"
#include "src/util/logging.hpp"

namespace cpla::route {

namespace {

/// Appends the cheapest L- or Z-shaped connection between two cells.
/// Z shapes bend at an intermediate column (HVH) or row (VHV), giving the
/// pattern stage a way to slip between congested corners; candidate bend
/// positions are sampled to bound the cost scan on long connections.
void pattern_route(const grid::GridGraph& g, const Usage2D& usage, const TwoPin& conn,
                   NetRoute* out) {
  const int x0 = conn.from.x, y0 = conn.from.y;
  const int x1 = conn.to.x, y1 = conn.to.y;

  auto h_run_cost = [&](int xa, int xb, int y) {
    double c = 0.0;
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x) c += usage.h_cost(g.h_edge_id(x, y));
    return c;
  };
  auto v_run_cost = [&](int ya, int yb, int x) {
    double c = 0.0;
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y) c += usage.v_cost(g.v_edge_id(x, y));
    return c;
  };
  auto emit_h = [&](int xa, int xb, int y) {
    for (int x = std::min(xa, xb); x < std::max(xa, xb); ++x) out->add_h(g.h_edge_id(x, y));
  };
  auto emit_v = [&](int ya, int yb, int x) {
    for (int y = std::min(ya, yb); y < std::max(ya, yb); ++y) out->add_v(g.v_edge_id(x, y));
  };

  if (y0 == y1) {
    emit_h(x0, x1, y0);
    return;
  }
  if (x0 == x1) {
    emit_v(y0, y1, x0);
    return;
  }

  // Candidates: the two Ls (Z bends at the endpoints) plus sampled interior
  // Z bends. Encoding: bend column xm for HVH, bend row ym for VHV.
  struct Candidate {
    bool hvh;
    int bend;
    double cost;
  };
  Candidate best{true, x1, h_run_cost(x0, x1, y0) + v_run_cost(y0, y1, x1)};  // L (corner at x1,y0)
  auto consider = [&](bool hvh, int bend, double cost) {
    if (cost < best.cost) best = Candidate{hvh, bend, cost};
  };
  consider(false, y1, v_run_cost(y0, y1, x0) + h_run_cost(x0, x1, y1));  // other L

  const int xa = std::min(x0, x1), xb = std::max(x0, x1);
  const int ya = std::min(y0, y1), yb = std::max(y0, y1);
  const int xstep = std::max(1, (xb - xa) / 6);
  for (int xm = xa + 1; xm < xb; xm += xstep) {
    consider(true, xm,
             h_run_cost(x0, xm, y0) + v_run_cost(y0, y1, xm) + h_run_cost(xm, x1, y1));
  }
  const int ystep = std::max(1, (yb - ya) / 6);
  for (int ym = ya + 1; ym < yb; ym += ystep) {
    consider(false, ym,
             v_run_cost(y0, ym, x0) + h_run_cost(x0, x1, ym) + v_run_cost(ym, y1, x1));
  }

  if (best.hvh) {
    emit_h(x0, best.bend, y0);
    emit_v(y0, y1, best.bend);
    emit_h(best.bend, x1, y1);
  } else {
    emit_v(y0, best.bend, x0);
    emit_h(x0, x1, best.bend);
    emit_v(best.bend, y1, x1);
  }
}

/// Cells touched by a route (edge endpoints).
std::vector<int> route_cells(const grid::GridGraph& g, const NetRoute& r) {
  std::vector<int> cells;
  cells.reserve(2 * (r.h_edges.size() + r.v_edges.size()));
  const int xs1 = g.xsize() - 1;
  for (int id : r.h_edges) {
    const int y = id / xs1;
    const int x = id % xs1;
    cells.push_back(g.cell_id(x, y));
    cells.push_back(g.cell_id(x + 1, y));
  }
  const int ys1 = g.ysize() - 1;
  for (int id : r.v_edges) {
    const int x = id / ys1;
    const int y = id % ys1;
    cells.push_back(g.cell_id(x, y));
    cells.push_back(g.cell_id(x, y + 1));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// Full maze reroute of one net: grow a component from the driver, maze to
/// each remaining pin (nearest first).
NetRoute maze_reroute(const grid::GridGraph& g, const Usage2D& usage, const grid::Net& net,
                      MazeRouter* maze) {
  NetRoute out;
  const auto cells = net.distinct_cells();
  if (cells.size() < 2) return out;

  std::vector<grid::Pin> order(cells.begin() + 1, cells.end());
  std::sort(order.begin(), order.end(), [&](const grid::Pin& a, const grid::Pin& b) {
    const int da = std::abs(a.x - cells[0].x) + std::abs(a.y - cells[0].y);
    const int db = std::abs(b.x - cells[0].x) + std::abs(b.y - cells[0].y);
    return da < db;
  });

  std::vector<int> component = {g.cell_id(cells[0].x, cells[0].y)};
  for (const auto& pin : order) {
    const int target = g.cell_id(pin.x, pin.y);
    if (std::find(component.begin(), component.end(), target) != component.end()) continue;
    NetRoute path;
    const bool ok = maze->route(g, usage, component, target, &path);
    CPLA_ASSERT_MSG(ok, "maze routing failed on a connected grid");
    out.h_edges.insert(out.h_edges.end(), path.h_edges.begin(), path.h_edges.end());
    out.v_edges.insert(out.v_edges.end(), path.v_edges.begin(), path.v_edges.end());
    const auto new_cells = route_cells(g, path);
    component.insert(component.end(), new_cells.begin(), new_cells.end());
    std::sort(component.begin(), component.end());
    component.erase(std::unique(component.begin(), component.end()), component.end());
  }
  out.normalize();
  return out;
}

}  // namespace

RoutingResult route_all(const grid::Design& design, const RouterOptions& options) {
  CPLA_ASSERT_MSG(options.history_step >= 0.0,
                  "history_step must be >= 0: maze routing relies on every edge costing >= 1");
  const grid::GridGraph& g = design.grid;
  RoutingResult result;
  result.routes.resize(design.nets.size());
  Usage2D usage(g);

  // Initial pattern routing over each net's RSMT (Steiner-refined MST)
  // topology, short nets first (they have the least routing freedom later).
  std::vector<std::size_t> order(design.nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return design.nets[a].hpwl() < design.nets[b].hpwl();
  });

  for (std::size_t idx : order) {
    const grid::Net& net = design.nets[idx];
    NetRoute r;
    for (const TwoPin& conn : steiner_topology(net)) pattern_route(g, usage, conn, &r);
    r.normalize();
    usage.add(r, +1);
    result.routes[idx] = std::move(r);
  }

  // Negotiated rip-up and reroute.
  long reroutes = 0;
  MazeRouter maze;
  for (int round = 0; round < options.max_negotiation_rounds; ++round) {
    const long overflow = usage.total_overflow();
    result.overflow = overflow;
    result.rounds = round;
    if (overflow == 0) break;
    usage.bump_history(options.history_step);

    for (std::size_t idx : order) {
      NetRoute& r = result.routes[idx];
      if (r.empty()) continue;
      bool congested = false;
      for (int id : r.h_edges) {
        if (usage.h_usage(id) > usage.h_cap(id)) {
          congested = true;
          break;
        }
      }
      if (!congested) {
        for (int id : r.v_edges) {
          if (usage.v_usage(id) > usage.v_cap(id)) {
            congested = true;
            break;
          }
        }
      }
      if (!congested) continue;

      usage.add(r, -1);
      r = maze_reroute(g, usage, design.nets[idx], &maze);
      usage.add(r, +1);
      ++reroutes;
    }
  }
  result.overflow = usage.total_overflow();
  obs::metrics().counter("route.ripup.rounds").add(result.rounds);
  obs::metrics().counter("route.ripup.reroutes").add(reroutes);

  LOG_INFO("router: %s: %zu nets, overflow=%ld after %d rounds", design.name.c_str(),
           design.nets.size(), result.overflow, result.rounds);
  return result;
}

}  // namespace cpla::route
