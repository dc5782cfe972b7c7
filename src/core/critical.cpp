#include "src/core/critical.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/check.hpp"

namespace cpla::core {

CriticalSet select_critical(const assign::AssignState& state, const timing::RcTable& rc,
                            double ratio) {
  CPLA_ASSERT(ratio >= 0.0 && ratio <= 1.0);
  const int n = state.num_nets();
  std::vector<double> delay(static_cast<std::size_t>(n), -1.0);
  for (int net = 0; net < n; ++net) {
    if (state.tree(net).segs.empty()) continue;
    CPLA_ASSERT_MSG(state.assigned(net), "critical selection requires a full assignment");
    delay[net] = timing::critical_delay(state.tree(net), state.layers(net), rc);
  }

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) { return delay[a] > delay[b]; });

  CriticalSet out;
  out.released.assign(static_cast<std::size_t>(n), 0);
  const int want = static_cast<int>(std::ceil(ratio * n));
  for (int i = 0; i < n && static_cast<int>(out.nets.size()) < want; ++i) {
    if (delay[order[i]] < 0.0) break;  // only unroutable/segment-free nets remain
    out.nets.push_back(order[i]);
    out.released[order[i]] = 1;
  }
  return out;
}

CriticalSet select_by_budget(const assign::AssignState& state, const timing::RcTable& rc,
                             double required_time) {
  const int n = state.num_nets();
  std::vector<std::pair<double, int>> violators;  // (delay, net)
  for (int net = 0; net < n; ++net) {
    if (state.tree(net).segs.empty()) continue;
    CPLA_ASSERT_MSG(state.assigned(net), "budget selection requires a full assignment");
    const double d = timing::critical_delay(state.tree(net), state.layers(net), rc);
    if (d > required_time) violators.push_back({d, net});
  }
  std::sort(violators.begin(), violators.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  CriticalSet out;
  out.released.assign(static_cast<std::size_t>(n), 0);
  for (const auto& [delay, net] : violators) {
    (void)delay;
    out.nets.push_back(net);
    out.released[net] = 1;
  }
  return out;
}

CriticalSet select_critical(const assign::AssignState& state, const sta::TimingGraph& graph,
                            double ratio) {
  CPLA_ASSERT(ratio >= 0.0 && ratio <= 1.0);
  const int n = state.num_nets();
  // Eligible nets (assignable wire, live node range), worst slack first,
  // ties by id.
  std::vector<std::pair<double, int>> ranked;  // (worst slack, net)
  for (int net = 0; net < n; ++net) {
    if (state.tree(net).segs.empty() || !graph.has_net(net)) continue;
    ranked.push_back({graph.net_slack(net), net});
  }
  // Net ids make every pair distinct, so the first `want` of a partial
  // sort are the first `want` of the full order. Runs every live-STA round.
  const int want = static_cast<int>(std::ceil(ratio * n));
  const auto last = ranked.begin() + std::min<std::ptrdiff_t>(want, std::ssize(ranked));
  std::partial_sort(ranked.begin(), last, ranked.end());

  CriticalSet out;
  out.released.assign(static_cast<std::size_t>(n), 0);
  for (auto it = ranked.begin(); it != last; ++it) {
    out.nets.push_back(it->second);
    out.released[it->second] = 1;
  }
  return out;
}

}  // namespace cpla::core
