#include "src/core/pipeline.hpp"

#include "src/assign/initial_assign.hpp"
#include "src/obs/metrics.hpp"
#include "src/route/router.hpp"
#include "src/route/seg_tree.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace cpla::core {

Prepared prepare(grid::Design design) {
  Prepared out;
  out.design = std::make_unique<grid::Design>(std::move(design));

  WallTimer timer;
  obs::ScopedPhase prepare_phase("core.pipeline.prepare");
  obs::ScopedPhase route_phase("core.pipeline.route2d");
  route::RoutingResult routed = route::route_all(*out.design);
  route_phase.stop();
  out.route_overflow_2d = routed.overflow;

  obs::ScopedPhase tree_phase("core.pipeline.extract_trees");
  std::vector<route::SegTree> trees;
  trees.reserve(out.design->nets.size());
  for (std::size_t n = 0; n < out.design->nets.size(); ++n) {
    trees.push_back(
        route::extract_tree(out.design->grid, out.design->nets[n], &routed.routes[n]));
  }
  tree_phase.stop();

  obs::ScopedPhase assign_phase("core.pipeline.initial_assign");
  out.state = std::make_unique<assign::AssignState>(out.design.get(), std::move(trees));
  assign::initial_assign(out.state.get());
  assign_phase.stop();
  out.rc = std::make_unique<timing::RcTable>(out.design->grid);

  LOG_INFO("pipeline: %s prepared in %.2fs", out.design->name.c_str(), timer.seconds());
  return out;
}

}  // namespace cpla::core
