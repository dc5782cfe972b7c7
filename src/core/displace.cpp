#include "src/core/displace.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <vector>

#include "src/assign/net_dp.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {

HeadroomCosts::HeadroomCosts(const assign::AssignState& state,
                             const std::vector<unsigned char>& wanted, std::size_t stride)
    : state_(state),
      wanted_(wanted),
      stride_(stride),
      num_layers_(state.design().grid.num_layers()) {}

void HeadroomCosts::begin(int net) {
  const auto& g = state_.design().grid;
  net_ = net;
  tree_ = &state_.tree(net);
  const std::size_t row = static_cast<std::size_t>(num_layers_) + 1;
  full_below_.resize(tree_->segs.size() * row);
  for (const route::Segment& seg : tree_->segs) {
    if (seg.parent < 0) continue;  // root vias are priced by root_via
    const int cell = g.cell_id(seg.a.x, seg.a.y);
    int* counts = full_below_.data() + static_cast<std::size_t>(seg.id) * row;
    counts[0] = 0;
    for (int l = 0; l < num_layers_; ++l) {
      counts[l + 1] = counts[l] + (state_.via_load(l, cell) + 1 > state_.via_cap(l, cell) ? 1 : 0);
    }
  }
}

double HeadroomCosts::seg(int s, int l) const {
  double cost = 0.0;
  state_.for_each_edge(net_, s, [&](int e) {
    if (wanted_[static_cast<std::size_t>(l) * stride_ + static_cast<std::size_t>(e)]) {
      cost += 1e7;  // stay out of the corridor being cleared
    }
    const int usage = state_.wire_usage(l, e);
    const int cap = state_.wire_cap(l, e);
    if (usage + 1 > cap) {
      cost += 1e5 * (usage + 1 - cap);  // never trade into wire overflow
    } else {
      cost += static_cast<double>(usage) / std::max(1, cap);
    }
  });
  // Track occupancy consumes nv via sites per crossed cell (4d); a
  // displacement must not trade wire headroom for via overflow.
  const int nv = state_.nv();
  state_.for_each_cell(net_, s, [&](int cell) {
    if (state_.via_load(l, cell) + nv > state_.via_cap(l, cell)) cost += 1e4;
  });
  for (const route::SinkAttach& sink : tree_->sinks) {
    if (sink.seg_id == s) cost += std::abs(l - sink.pin_layer);
  }
  return cost;
}

int make_headroom(assign::AssignState* state, const CriticalSet& critical,
                  const RoundTiming& timing, const DisplaceOptions& options) {
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
  // Per (layer, line) — the row of a horizontal layer, the column of a
  // vertical one — the positions that hold wanted slots, so the victim
  // scan below reads the byte map only for segments that can touch one.
  const int lines = std::max(g.xsize(), g.ysize());
  std::vector<std::pair<int, int>> wanted_span(static_cast<std::size_t>(g.num_layers()) * lines,
                                               {INT_MAX, INT_MIN});
  auto span_of = [&](int l, const route::Segment& seg) -> std::pair<int, int>& {
    const int line = seg.horizontal ? seg.a.y : seg.a.x;
    return wanted_span[static_cast<std::size_t>(l) * lines + line];
  };
  auto first_pos = [](const route::Segment& seg) {
    return seg.horizontal ? std::min(seg.a.x, seg.b.x) : std::min(seg.a.y, seg.b.y);
  };
  std::size_t num_wanted = 0;
  for (int net : critical.nets) {
    const route::SegTree& tree = state->tree(net);
    if (tree.segs.empty()) continue;
    const timing::NetTiming& t = timing.at(net).timing;
    for (const route::Segment& seg : tree.segs) {
      if (t.criticality[seg.id] < options.min_criticality) continue;
      const int current = state->layers(net)[seg.id];
      for (int l : state->allowed_layers(seg.horizontal)) {
        if (l <= current) continue;  // headroom is only needed above
        std::pair<int, int>& span = span_of(l, seg);
        int pos = first_pos(seg);
        state->for_each_edge(net, seg.id, [&](int e) {
          if (state->wire_cap(l, e) - state->wire_usage(l, e) < kHeadroom) {
            num_wanted += wanted[slot(l, e)] == 0 ? 1 : 0;
            wanted[slot(l, e)] = 1;
            span = {std::min(span.first, pos), std::max(span.second, pos)};
          }
          ++pos;
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
      const std::pair<int, int>& span = span_of(l, seg);
      const int lo = first_pos(seg);
      if (lo > span.second || lo + seg.length() - 1 < span.first) continue;  // no wanted edge
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
  //    pass trades *placement*, never legality. Nearly every trial is
  //    reverted; the revert is a set_layers on an assigned net, so it moves
  //    back only the segments the DP moved. The DP and its costs reuse
  //    their tables across trials.
  constexpr int kMaxVictimsPerRound = 48;
  int moved = 0;
  long wire_ov = state->wire_overflow();
  long via_ov = state->via_overflow();
  assign::NetDp dp;
  HeadroomCosts costs(*state, wanted, stride);
  std::vector<int> old_layers;
  for (const auto& victim : victims) {
    if (moved >= kMaxVictimsPerRound) break;
    const int net = victim.first;
    const route::SegTree& tree = state->tree(net);
    old_layers = state->layers(net);
    state->clear_net(net);
    costs.begin(net);
    const std::vector<int>& fresh = dp.solve(
        tree,
        [&](int s) -> const std::vector<int>& {
          return state->allowed_layers(tree.segs[s].horizontal);
        },
        [&](int s, int l) { return costs.seg(s, l); },
        [&](int, int l) { return costs.root_via(l); },
        [&](int c, int lp, int lc) { return costs.via(c, lp, lc); });
    if (fresh == old_layers) {
      state->set_layers(net, old_layers);  // nowhere better to go
      continue;
    }
    state->set_layers(net, fresh);
    const long wire_now = state->wire_overflow();
    const long via_now = state->via_overflow();
    if (wire_now > wire_ov || via_now > via_ov) {
      state->set_layers(net, old_layers);  // legality first
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
