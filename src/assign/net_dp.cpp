#include "src/assign/net_dp.hpp"

#include <limits>

#include "src/util/check.hpp"

namespace cpla::assign {

std::vector<int> solve_net_dp(const route::SegTree& tree,
                              const std::function<const std::vector<int>&(int s)>& allowed,
                              const NetDpCosts& costs) {
  const std::size_t n = tree.segs.size();
  std::vector<int> result(n, 0);
  if (n == 0) return result;

  // The DP tables are two flat arrays, one slice per segment:
  // best[at.best + k]: cost of the subtree rooted at s with s on opts[k];
  // choice[at.choice + k * #children + ci]: index into the options of child
  // ci chosen for that k. Victim displacement runs the DP once per trial,
  // hundreds of times per round, so a call allocates a fixed handful of
  // arrays instead of one per (segment, option).
  struct Slice {
    const std::vector<int>* opts = nullptr;
    std::size_t best = 0;
    std::size_t choice = 0;
  };
  std::vector<Slice> at(n);
  std::size_t num_best = 0;
  std::size_t num_choice = 0;
  for (std::size_t i = n; i-- > 0;) {
    const std::vector<int>& opts = allowed(static_cast<int>(i));
    CPLA_ASSERT_MSG(!opts.empty(), "segment has no allowed layers");
    at[i] = Slice{&opts, num_best, num_choice};
    num_best += opts.size();
    num_choice += opts.size() * tree.segs[i].children.size();
  }
  std::vector<double> best(num_best, 0.0);
  std::vector<int> choice(num_choice, 0);

  // Children follow their parent, so a bottom-up pass sees every child's
  // slice filled before its parent reads it.
  for (std::size_t i = n; i-- > 0;) {
    const route::Segment& seg = tree.segs[i];
    const std::vector<int>& opts = *at[i].opts;
    const std::size_t num_children = seg.children.size();
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const int l = opts[k];
      double total = costs.seg_cost(static_cast<int>(i), l);
      for (std::size_t ci = 0; ci < num_children; ++ci) {
        const int c = seg.children[ci];
        const std::vector<int>& copts = *at[c].opts;
        const double* cbest = best.data() + at[c].best;
        double child_best = std::numeric_limits<double>::infinity();
        int child_pick = 0;
        for (std::size_t ck = 0; ck < copts.size(); ++ck) {
          const double v = cbest[ck] + costs.via_cost(c, l, copts[ck]);
          if (v < child_best) {
            child_best = v;
            child_pick = static_cast<int>(ck);
          }
        }
        total += child_best;
        choice[at[i].choice + k * num_children + ci] = child_pick;
      }
      best[at[i].best + k] = total;
    }
  }

  // Pick roots and back-track.
  std::vector<int> pick(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (tree.segs[i].parent >= 0) continue;
    const std::vector<int>& opts = *at[i].opts;
    double root_best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const double v =
          best[at[i].best + k] + costs.root_via_cost(static_cast<int>(i), opts[k]);
      if (v < root_best) {
        root_best = v;
        pick[i] = static_cast<int>(k);
      }
    }
  }
  // Parents precede children, so a single forward pass resolves all picks.
  for (std::size_t i = 0; i < n; ++i) {
    CPLA_ASSERT(pick[i] >= 0);
    const route::Segment& seg = tree.segs[i];
    const std::size_t num_children = seg.children.size();
    result[i] = (*at[i].opts)[pick[i]];
    const int* row = choice.data() + at[i].choice + static_cast<std::size_t>(pick[i]) * num_children;
    for (std::size_t ci = 0; ci < num_children; ++ci) pick[seg.children[ci]] = row[ci];
  }
  return result;
}

}  // namespace cpla::assign
