#include "src/core/displace.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <vector>

#include "src/assign/net_dp.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {

int make_headroom(assign::AssignState* state, const timing::RcTable& rc,
                  const CriticalSet& critical, const DisplaceOptions& options) {
  const auto& g = state->design().grid;

  // 1. Wanted slots: for each nearly-critical released segment, the layers
  //    above its current one (same direction) on every edge it crosses,
  //    where remaining capacity is below the headroom target.
  //    The slots form a dense (layer, edge) byte map: every victim trial
  //    probes it once per crossed edge, so it must not hash.
  constexpr int kHeadroom = 1;  // tracks to free per wanted slot
  const std::size_t stride =
      static_cast<std::size_t>(std::max(g.num_h_edges(), g.num_v_edges()));
  std::vector<unsigned char> wanted(static_cast<std::size_t>(g.num_layers()) * stride, 0);
  auto slot = [stride](int l, int e) {
    return static_cast<std::size_t>(l) * stride + static_cast<std::size_t>(e);
  };
  std::size_t num_wanted = 0;
  for (int net : critical.nets) {
    const route::SegTree& tree = state->tree(net);
    if (tree.segs.empty()) continue;
    const timing::NetTiming t = timing::compute_timing(tree, state->layers(net), rc);
    for (const route::Segment& seg : tree.segs) {
      if (t.criticality[seg.id] < options.min_criticality) continue;
      const int current = state->layers(net)[seg.id];
      for (int l : state->allowed_layers(seg.horizontal)) {
        if (l <= current) continue;  // headroom is only needed above
        state->for_each_edge(net, seg.id, [&](int e) {
          if (state->wire_cap(l, e) - state->wire_usage(l, e) < kHeadroom) {
            num_wanted += wanted[slot(l, e)] == 0 ? 1 : 0;
            wanted[slot(l, e)] = 1;
          }
        });
      }
    }
  }
  if (num_wanted == 0) return 0;

  // 2. Victim candidates: non-released nets occupying wanted slots, ranked
  //    by how many wanted slots they block (clear the biggest blockers
  //    first). Only short/medium nets are displaced — demoting a long net
  //    would create a new timing problem.
  std::vector<int> blocked_by(static_cast<std::size_t>(state->num_nets()), 0);
  for (int net = 0; net < state->num_nets(); ++net) {
    if (critical.released[net] || !state->assigned(net)) continue;
    const auto& layers = state->layers(net);
    long wl = 0;
    for (const auto& seg : state->tree(net).segs) wl += seg.length();
    if (wl > 40) continue;
    for (const route::Segment& seg : state->tree(net).segs) {
      const int l = layers[seg.id];
      state->for_each_edge(net, seg.id, [&](int e) {
        if (wanted[slot(l, e)]) blocked_by[net] += 1;
      });
    }
  }
  std::vector<std::pair<int, int>> victims;  // (net, #wanted slots occupied)
  for (int net = 0; net < state->num_nets(); ++net) {
    if (blocked_by[net] > 0) victims.emplace_back(net, blocked_by[net]);
  }
  // Tie-break on net id, so the victim sequence (hence the final
  // assignment) is a pure function of the input.
  std::sort(victims.begin(), victims.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });

  // 3. Re-assign victims with the wanted slots priced as forbidden. A move
  //    that worsens global wire or via overflow is reverted outright — the
  //    pass trades *placement*, never legality.
  constexpr int kMaxVictimsPerRound = 48;
  int moved = 0;
  const long wire_ov_before = state->wire_overflow();
  const long via_ov_before = state->via_overflow();
  long wire_ov = wire_ov_before;
  long via_ov = via_ov_before;
  // The DP's cost callbacks are built once and read the victim under
  // trial: nearly every trial is reverted, so a trial allocates little.
  const int nv = state->nv();
  int net = -1;
  const route::SegTree* tree = nullptr;
  assign::NetDpCosts costs;
  costs.seg_cost = [&](int s, int l) {
    double cost = 0.0;
    state->for_each_edge(net, s, [&](int e) {
      if (wanted[slot(l, e)]) {
        cost += 1e7;  // stay out of the corridor being cleared
      }
      const int usage = state->wire_usage(l, e);
      const int cap = state->wire_cap(l, e);
      if (usage + 1 > cap) {
        cost += 1e5 * (usage + 1 - cap);  // never trade into wire overflow
      } else {
        cost += static_cast<double>(usage) / std::max(1, cap);
      }
    });
    // Track occupancy consumes nv via sites per crossed cell (4d); a
    // displacement must not trade wire headroom for via overflow.
    state->for_each_cell(net, s, [&](int cell) {
      if (state->via_load(l, cell) + nv > state->via_cap(l, cell)) cost += 1e4;
    });
    for (const route::SinkAttach& sink : tree->sinks) {
      if (sink.seg_id == s) cost += std::abs(l - sink.pin_layer);
    }
    return cost;
  };
  costs.root_via_cost = [&](int, int l) {
    return static_cast<double>(std::abs(l - tree->root_pin_layer));
  };
  costs.via_cost = [&](int c, int lp, int lc) {
    double cost = std::abs(lp - lc);
    const route::Segment& seg = tree->segs[c];
    const int cell = g.cell_id(seg.a.x, seg.a.y);
    for (int l = std::min(lp, lc) + 1; l < std::max(lp, lc); ++l) {
      if (state->via_load(l, cell) + 1 > state->via_cap(l, cell)) cost += 1e4;
    }
    return cost;
  };
  const std::function<const std::vector<int>&(int)> allowed =
      [&](int s) -> const std::vector<int>& {
    return state->allowed_layers(tree->segs[s].horizontal);
  };

  for (const auto& victim : victims) {
    if (moved >= kMaxVictimsPerRound) break;
    net = victim.first;
    tree = &state->tree(net);
    std::vector<int> old_layers = state->layers(net);
    state->clear_net(net);
    std::vector<int> fresh = assign::solve_net_dp(*tree, allowed, costs);
    if (fresh == old_layers) {
      state->set_layers(net, std::move(old_layers));  // nowhere better to go
      continue;
    }
    state->set_layers(net, std::move(fresh));
    const long wire_now = state->wire_overflow();
    const long via_now = state->via_overflow();
    if (wire_now > wire_ov || via_now > via_ov) {
      state->set_layers(net, std::move(old_layers));  // legality first
      continue;
    }
    wire_ov = wire_now;
    via_ov = via_now;
    ++moved;
  }
  LOG_DEBUG("displace: %zu wanted slots, %d victims moved", num_wanted, moved);
  return moved;
}

}  // namespace cpla::core
