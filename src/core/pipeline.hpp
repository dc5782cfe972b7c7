#pragma once

// End-to-end preparation pipeline: design -> 2-D global routing -> segment
// trees -> initial layer assignment -> ready-to-optimize AssignState. This
// is the "given initial routing and layer assignment" precondition of
// Problem 1 (CPLA).

#include <memory>

#include "src/assign/state.hpp"
#include "src/grid/design.hpp"
#include "src/timing/rc_table.hpp"

namespace cpla::core {

/// Owns the design and everything derived from it. Movable, not copyable.
struct Prepared {
  std::unique_ptr<grid::Design> design;
  std::unique_ptr<assign::AssignState> state;
  std::unique_ptr<timing::RcTable> rc;
  long route_overflow_2d = 0;
};

/// Routes (default route::RouterOptions) and initially assigns the whole
/// design.
Prepared prepare(grid::Design design);

}  // namespace cpla::core
