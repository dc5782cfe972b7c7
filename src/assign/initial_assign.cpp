#include "src/assign/initial_assign.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "src/assign/net_dp.hpp"
#include "src/util/logging.hpp"

namespace cpla::assign {

namespace {

constexpr double kViaWeight = 1.0;          // cost per via layer crossing
constexpr double kOverflowPenalty = 64.0;   // per unit of wire overflow
constexpr double kViaOverflowPenalty = 16.0;
// Length-tier preference, mirroring industrial flows: long nets are
// promoted to high (low-R) layer pairs, short local nets stay low. The cost
// is kTierBias * |preferred_pair - pair(l)| per tile of segment, where
// preferred_pair grows with the net's total wirelength (one pair per
// kTierLength tiles).
constexpr double kTierBias = 0.4;
constexpr double kTierLength = 25.0;
// Fraction of top-pair / mid-pair capacity the initial assignment leaves
// free, as production flows do (headroom for the timing-driven incremental
// pass; the top layers are where critical nets must land).
constexpr double kTopReserve = 0.30;
constexpr double kMidReserve = 0.15;

/// The DP costs of one net under the current usage state (the net itself
/// must not be in the usage maps while its costs are evaluated).
class NetCosts {
 public:
  NetCosts(const AssignState& state, int net) : state_(state), net_(net) {
    // Length-tier layer preference is driven by the net's total
    // wirelength: long (timing-relevant) nets ride the high,
    // low-resistance pairs, short local nets stay low — mirroring
    // production layer-assignment tiers.
    long net_len = 0;
    for (const auto& seg : state.tree(net).segs) net_len += seg.length();
    num_layers_ = state.design().grid.num_layers();
    const int num_pairs = (num_layers_ + 1) / 2;
    preferred_ = std::min(num_pairs - 1, static_cast<int>(net_len / kTierLength));
  }

  double seg(int s, int l) const {
    double cost = 0.0;
    const int len = state_.tree(net_).segs[s].length();
    cost += kTierBias * len * std::abs(preferred_ - l / 2);
    // Reserve headroom on the upper pairs for the incremental timing pass.
    const int pair = l / 2;
    const int top_pair = (num_layers_ - 1) / 2;
    double reserve = 0.0;
    if (pair == top_pair) {
      reserve = kTopReserve;
    } else if (pair == top_pair - 1) {
      reserve = kMidReserve;
    }
    state_.for_each_edge(net_, s, [&](int e) {
      const int usage = state_.wire_usage(l, e);
      const int cap = state_.wire_cap(l, e);
      const int eff_cap = std::max(1, static_cast<int>(cap * (1.0 - reserve)));
      // Real capacity is hard (heavy penalty); the reserve band is soft —
      // it bends when the lower layers are exhausted.
      if (usage + 1 > cap) {
        cost += kOverflowPenalty * static_cast<double>(usage + 1 - cap);
      }
      if (usage + 1 > eff_cap) {
        cost += 0.5 * kOverflowPenalty * static_cast<double>(usage + 1 - eff_cap);
      } else {
        cost += static_cast<double>(usage) / static_cast<double>(std::max(1, eff_cap));
      }
    });
    // Sink vias attached to this segment (depend only on this layer).
    for (const route::SinkAttach& sink : state_.tree(net_).sinks) {
      if (sink.seg_id == s) cost += kViaWeight * std::abs(l - sink.pin_layer);
    }
    return cost;
  }

  double root_via(int l) const {
    return kViaWeight * std::abs(l - state_.tree(net_).root_pin_layer);
  }

  double via(int c, int lp, int lc) const {
    double cost = kViaWeight * std::abs(lp - lc);
    // Via-site congestion on intermediate layers at the junction.
    const route::Segment& seg = state_.tree(net_).segs[c];
    const int cell = state_.design().grid.cell_id(seg.a.x, seg.a.y);
    for (int l = std::min(lp, lc) + 1; l < std::max(lp, lc); ++l) {
      if (state_.via_load(l, cell) + 1 > state_.via_cap(l, cell)) {
        cost += kViaOverflowPenalty;
      }
    }
    return cost;
  }

 private:
  const AssignState& state_;
  int net_;
  int num_layers_ = 0;
  int preferred_ = 0;
};

}  // namespace

void initial_assign(AssignState* state) {
  // Longest nets first: they need the most layer freedom.
  std::vector<int> order(static_cast<std::size_t>(state->num_nets()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<long> wl(order.size(), 0);
  for (int n = 0; n < state->num_nets(); ++n) {
    for (const auto& seg : state->tree(n).segs) wl[n] += seg.length();
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) { return wl[a] > wl[b]; });

  NetDp dp;
  for (int net : order) {
    const route::SegTree& tree = state->tree(net);
    if (tree.segs.empty()) continue;
    state->clear_net(net);
    const NetCosts costs(*state, net);
    state->set_layers(
        net, dp.solve(
                 tree,
                 [state, &tree](int s) -> const std::vector<int>& {
                   return state->allowed_layers(tree.segs[s].horizontal);
                 },
                 [&costs](int s, int l) { return costs.seg(s, l); },
                 [&costs](int, int l) { return costs.root_via(l); },
                 [&costs](int c, int lp, int lc) { return costs.via(c, lp, lc); }));
  }

  LOG_INFO("initial assign: wire_ov=%ld via_ov=%ld vias=%ld", state->wire_overflow(),
           state->via_overflow(), state->via_count());
}

}  // namespace cpla::assign
