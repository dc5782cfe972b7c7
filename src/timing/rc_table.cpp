#include "src/timing/rc_table.hpp"

#include <algorithm>

namespace cpla::timing {

RcTable::RcTable(const grid::GridGraph& g) {
  const int nl = g.num_layers();
  res_.resize(nl);
  cap_.resize(nl);
  via_res_.resize(nl);
  for (int l = 0; l < nl; ++l) {
    res_[l] = g.layer(l).unit_res;
    cap_[l] = g.layer(l).unit_cap;
    via_res_[l] = g.layer(l).via_res_up;
  }
  sum_stacks();
}

void RcTable::sum_stacks() {
  const int nl = num_layers();
  stack_res_.assign(static_cast<std::size_t>(nl) * nl, 0.0);
  for (int from = 0; from < nl; ++from) {
    for (int to = 0; to < nl; ++to) {
      double sum = 0.0;
      for (int l = std::min(from, to); l < std::max(from, to); ++l) sum += via_res_[l];
      stack_res_[static_cast<std::size_t>(from) * nl + to] = sum;
    }
  }
}

void RcTable::scale_resistance(double factor) {
  for (double& r : res_) r *= factor;
  for (double& r : via_res_) r *= factor;
  sum_stacks();
}

void RcTable::scale_capacitance(double factor) {
  for (double& c : cap_) c *= factor;
}

}  // namespace cpla::timing
