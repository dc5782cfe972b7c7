#pragma once

// 2-D global router: congestion-aware pattern (L-shape) initial routing,
// followed by PathFinder-style negotiated rip-up-and-reroute with maze
// routing for nets crossing overflowed edges. Produces the "initial
// routing" input the layer-assignment stage consumes.

#include <vector>

#include "src/route/route2d.hpp"

namespace cpla::route {

struct RouterOptions {
  int max_negotiation_rounds = 8;
  double history_step = 1.5;
};

struct RoutingResult {
  std::vector<NetRoute> routes;  // indexed by net id
  long overflow = 0;             // residual 2-D overflow after negotiation
  int rounds = 0;
};

RoutingResult route_all(const grid::Design& design, const RouterOptions& options = {});

}  // namespace cpla::route
