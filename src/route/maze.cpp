#include "src/route/maze.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "src/util/check.hpp"

namespace cpla::route {

// Dijkstra over (cell, incoming direction) states. The bend penalty keeps
// rerouted paths straight — matching the mostly-monotone routes production
// global routers emit, and keeping the downstream segment trees short.
//
// Every route is bit for bit what a plain binary-heap Dijkstra returns
// (DESIGN.md, implementation decision 8, has the argument):
//   * a push whose cost plus a lower bound on the rest of the way exceeds
//     the cost of a concrete L path (plus a margin far above the rounding
//     error) is skipped: such a state can neither lie on a shortest path
//     nor tie with one;
//   * the queue is a monotone bucket queue keyed by floor(cost): every edge
//     costs at least 1 (Usage2D keeps history >= 0), so a label popped from
//     bucket k only pushes into buckets above k, and sorting each bucket by
//     (cost, state) when it becomes current replays the heap's order.
// Labels and buckets persist across calls; a generation stamp marks which
// labels belong to the current call.
namespace {
constexpr double kBendPenalty = 1.5;
constexpr int kDirH = 0;
constexpr int kDirV = 1;
constexpr int kDirNone = 2;  // start state

/// Cost of the cheaper L path from (sx, sy) to (tx, ty), summed edge by edge
/// as the search sums it, so it is exactly the search's cost for that path.
double l_path_cost(const Usage2D& usage, int xs, int ys, int sx, int sy, int tx, int ty) {
  auto walk = [&](bool h_first) {
    double d = 0.0;
    int x = sx, y = sy, dir = kDirNone;
    auto step = [&](int axis) {
      double edge;
      if (axis == kDirH) {
        const int nx = x + (tx > x ? 1 : -1);
        edge = usage.h_cost(y * (xs - 1) + std::min(x, nx));
        x = nx;
      } else {
        const int ny = y + (ty > y ? 1 : -1);
        edge = usage.v_cost(x * (ys - 1) + std::min(y, ny));
        y = ny;
      }
      const double bend = (dir != kDirNone && dir != axis) ? kBendPenalty : 0.0;
      d = d + edge + bend;
      dir = axis;
    };
    const int first = h_first ? kDirH : kDirV;
    const int second = h_first ? kDirV : kDirH;
    auto done = [&](int axis) { return axis == kDirH ? x == tx : y == ty; };
    while (!done(first)) step(first);
    while (!done(second)) step(second);
    return d;
  };
  return std::min(walk(true), walk(false));
}

}  // namespace

bool MazeRouter::route(const grid::GridGraph& g, const Usage2D& usage,
                       const std::vector<int>& sources, int target, NetRoute* out) {
  CPLA_ASSERT(!sources.empty());
  const int xs = g.xsize();
  const int ys = g.ysize();
  const int tx = target % xs;
  const int ty = target / xs;

  // Upper bound U: an L path from the source cell nearest the target.
  int nearest = sources.front();
  int nearest_gap = std::numeric_limits<int>::max();
  for (int s : sources) {
    const int gap = std::abs(s % xs - tx) + std::abs(s / xs - ty);
    if (gap < nearest_gap) {
      nearest_gap = gap;
      nearest = s;
    }
  }
  const double upper = l_path_cost(usage, xs, ys, nearest % xs, nearest / xs, tx, ty);
  const double bound = upper * (1.0 + 1e-12) + 1e-9;

  // Never above the true remaining cost: every edge costs >= 1, and a path
  // needs a turn when it must move along both axes, or along the axis it
  // does not arrive on.
  auto lower = [&](int x, int y, int dir) {
    const bool need_h = x != tx;
    const bool need_v = y != ty;
    const bool turn =
        (need_h && need_v) || (dir == kDirH && need_v) || (dir == kDirV && need_h);
    return static_cast<double>(std::abs(x - tx) + std::abs(y - ty)) +
           (turn ? kBendPenalty : 0.0);
  };

  const std::size_t num_states = static_cast<std::size_t>(xs) * ys * 3;
  if (labels_.size() < num_states) labels_.resize(num_states);
  if (++stamp_ == 0) {  // wrapped: no label may look current
    for (Label& l : labels_) l.stamp = 0;
    stamp_ = 1;
  }
  const std::size_t num_buckets = static_cast<std::size_t>(bound) + 1;
  if (buckets_.size() < num_buckets) buckets_.resize(num_buckets);
  std::size_t top = 0;  // highest bucket holding an item

  auto push = [&](int x, int y, int dir, double d, int from) {
    if (d + lower(x, y, dir) > bound) return;
    const int st = (y * xs + x) * 3 + dir;
    Label& label = labels_[st];
    if (label.stamp != stamp_) {
      label.stamp = stamp_;
      label.dist = std::numeric_limits<double>::infinity();
    }
    if (!(d < label.dist)) return;
    label.dist = d;
    label.prev = from;
    const std::size_t b = static_cast<std::size_t>(d);
    buckets_[b].push_back({d, st});
    top = std::max(top, b);
  };
  for (int src : sources) push(src % xs, src / xs, kDirNone, 0.0, -1);

  int goal_state = -1;
  std::size_t k = 0;
  for (; k <= top && goal_state < 0; ++k) {
    std::vector<Item>& bucket = buckets_[k];
    std::sort(bucket.begin(), bucket.end());
    for (const auto& [d, st] : bucket) {
      if (d > labels_[st].dist) continue;
      const int cell = st / 3;
      const int dir = st % 3;
      if (cell == target) {
        goal_state = st;
        break;
      }
      const int x = cell % xs;
      const int y = cell / xs;
      auto relax = [&](int nx, int ny, int ndir, double edge_cost) {
        const double bend = (dir != kDirNone && dir != ndir) ? kBendPenalty : 0.0;
        push(nx, ny, ndir, d + edge_cost + bend, st);
      };
      if (x > 0) relax(x - 1, y, kDirH, usage.h_cost(y * (xs - 1) + x - 1));
      if (x < xs - 1) relax(x + 1, y, kDirH, usage.h_cost(y * (xs - 1) + x));
      if (y > 0) relax(x, y - 1, kDirV, usage.v_cost(x * (ys - 1) + y - 1));
      if (y < ys - 1) relax(x, y + 1, kDirV, usage.v_cost(x * (ys - 1) + y));
    }
    bucket.clear();
  }
  for (; k <= top; ++k) buckets_[k].clear();
  if (goal_state < 0) return false;

  // Walk back, emitting unit edges.
  int st = goal_state;
  while (labels_[st].prev >= 0) {
    const int p = labels_[st].prev;
    const int cell = st / 3;
    const int pcell = p / 3;
    const int cx = cell % xs, cy = cell / xs;
    const int px = pcell % xs, py = pcell / xs;
    if (cy == py) {
      out->add_h(g.h_edge_id(std::min(cx, px), cy));
    } else {
      out->add_v(g.v_edge_id(cx, std::min(cy, py)));
    }
    st = p;
  }
  return true;
}

}  // namespace cpla::route
