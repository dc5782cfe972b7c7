#pragma once

// Per-net layer-assignment dynamic program over the segment tree, the
// workhorse shared by the initial assigner, victim displacement and the
// guard's per-net tier. Each expresses its objective through cost
// functors:
//
//   total = sum_s seg_cost(s, l_s)
//         + sum_{root segs} root_via_cost(s, l_s)
//         + sum_{child c}  via_cost(c, l_parent(c), l_c)
//
// The optimum over all combinations is found exactly by bottom-up DP with
// one state per (segment, allowed layer).

#include <cstddef>
#include <limits>
#include <vector>

#include "src/route/seg_tree.hpp"
#include "src/util/check.hpp"

namespace cpla::assign {

/// The DP with its tables kept between solves: victim displacement runs it
/// once per trial, thousands of times per flow, so a warm solver allocates
/// nothing. The cost functors are template parameters, so a caller's
/// lambdas inline into the inner loops.
class NetDp {
 public:
  /// Exact tree DP; returns the per-segment layer choice, valid until the
  /// next solve. `allowed(s)` returns a nonempty `const std::vector<int>&`
  /// that outlives the call; `seg_cost(s, l)`, `root_via_cost(s, l)` and
  /// `via_cost(c, lp, lc)` return doubles. Ties go to the earlier option.
  template <typename Allowed, typename SegCost, typename RootViaCost, typename ViaCost>
  const std::vector<int>& solve(const route::SegTree& tree, const Allowed& allowed,
                                const SegCost& seg_cost, const RootViaCost& root_via_cost,
                                const ViaCost& via_cost);

 private:
  // The tables are flat, one slice per segment:
  // best_[at_[s].best + k]: cost of the subtree rooted at s with s on
  // option k; choice_[at_[s].choice + k * #children + ci]: the option of
  // child ci chosen for that k.
  struct Slice {
    const std::vector<int>* opts = nullptr;
    std::size_t best = 0;
    std::size_t choice = 0;
  };
  std::vector<Slice> at_;
  std::vector<double> best_;
  std::vector<int> choice_;
  std::vector<int> pick_;
  std::vector<int> result_;
};

template <typename Allowed, typename SegCost, typename RootViaCost, typename ViaCost>
const std::vector<int>& NetDp::solve(const route::SegTree& tree, const Allowed& allowed,
                                     const SegCost& seg_cost, const RootViaCost& root_via_cost,
                                     const ViaCost& via_cost) {
  const std::size_t n = tree.segs.size();
  result_.assign(n, 0);
  if (n == 0) return result_;

  at_.resize(n);
  std::size_t num_best = 0;
  std::size_t num_choice = 0;
  for (std::size_t i = n; i-- > 0;) {
    const std::vector<int>& opts = allowed(static_cast<int>(i));
    CPLA_ASSERT_MSG(!opts.empty(), "segment has no allowed layers");
    at_[i] = Slice{&opts, num_best, num_choice};
    num_best += opts.size();
    num_choice += opts.size() * tree.segs[i].children.size();
  }
  best_.resize(num_best);
  choice_.resize(num_choice);

  // Children follow their parent, so a bottom-up pass sees every child's
  // slice filled before its parent reads it.
  for (std::size_t i = n; i-- > 0;) {
    const route::Segment& seg = tree.segs[i];
    const std::vector<int>& opts = *at_[i].opts;
    const std::size_t num_children = seg.children.size();
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const int l = opts[k];
      double total = seg_cost(static_cast<int>(i), l);
      for (std::size_t ci = 0; ci < num_children; ++ci) {
        const int c = seg.children[ci];
        const std::vector<int>& copts = *at_[c].opts;
        const double* cbest = best_.data() + at_[c].best;
        double child_best = std::numeric_limits<double>::infinity();
        int child_pick = 0;
        for (std::size_t ck = 0; ck < copts.size(); ++ck) {
          const double v = cbest[ck] + via_cost(c, l, copts[ck]);
          if (v < child_best) {
            child_best = v;
            child_pick = static_cast<int>(ck);
          }
        }
        total += child_best;
        choice_[at_[i].choice + k * num_children + ci] = child_pick;
      }
      best_[at_[i].best + k] = total;
    }
  }

  // Pick roots and back-track.
  pick_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (tree.segs[i].parent >= 0) continue;
    const std::vector<int>& opts = *at_[i].opts;
    double root_best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const double v = best_[at_[i].best + k] + root_via_cost(static_cast<int>(i), opts[k]);
      if (v < root_best) {
        root_best = v;
        pick_[i] = static_cast<int>(k);
      }
    }
  }
  // Parents precede children, so a single forward pass resolves all picks.
  for (std::size_t i = 0; i < n; ++i) {
    CPLA_ASSERT(pick_[i] >= 0);
    const route::Segment& seg = tree.segs[i];
    const std::size_t num_children = seg.children.size();
    result_[i] = (*at_[i].opts)[pick_[i]];
    const int* row =
        choice_.data() + at_[i].choice + static_cast<std::size_t>(pick_[i]) * num_children;
    for (std::size_t ci = 0; ci < num_children; ++ci) pick_[seg.children[ci]] = row[ci];
  }
  return result_;
}

}  // namespace cpla::assign
