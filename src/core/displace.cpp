#include "src/core/displace.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <vector>

#include "src/assign/net_dp.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {

namespace {

constexpr long kMaxVictimLength = 40;  // wire length of the longest displaceable net

}  // namespace

VictimIndex::VictimIndex(const assign::AssignState& state) {
  const auto& g = state.design().grid;
  lines_ = std::max(g.xsize(), g.ysize());
  std::vector<int> short_nets;
  for (int net = 0; net < state.num_nets(); ++net) {
    long wl = 0;
    for (const route::Segment& seg : state.tree(net).segs) wl += seg.length();
    if (wl <= kMaxVictimLength) short_nets.push_back(net);
  }
  auto key = [&](const route::Segment& seg) {
    return key_of(seg.horizontal, seg.horizontal ? seg.a.y : seg.a.x);
  };
  // A counting sort by line, filled in net order, keeps each line's
  // entries in (net, segment) order.
  line_begin_.assign(2 * static_cast<std::size_t>(lines_) + 1, 0);
  for (const int net : short_nets) {
    for (const route::Segment& seg : state.tree(net).segs) ++line_begin_[key(seg) + 1];
  }
  for (std::size_t k = 1; k < line_begin_.size(); ++k) line_begin_[k] += line_begin_[k - 1];
  entries_.resize(static_cast<std::size_t>(line_begin_.back()));
  std::vector<int> cursor(line_begin_.begin(), line_begin_.end() - 1);
  for (const int net : short_nets) {
    for (const route::Segment& seg : state.tree(net).segs) {
      const int first = seg.horizontal ? std::min(seg.a.x, seg.b.x) : std::min(seg.a.y, seg.b.y);
      entries_[static_cast<std::size_t>(cursor[key(seg)]++)] =
          Entry{net, seg.id, first, seg.length()};
    }
  }
}

HeadroomCosts::HeadroomCosts(const assign::AssignState& state,
                             const std::vector<unsigned char>& wanted, std::size_t stride)
    : state_(state),
      wanted_(wanted),
      stride_(stride),
      num_layers_(state.design().grid.num_layers()) {}

void HeadroomCosts::end_loads(const std::vector<int>& layers, std::vector<int>* own) const {
  const auto L = static_cast<std::size_t>(num_layers_);
  const int nv = state_.nv();
  own->assign((tree_->segs.size() + 1) * L, 0);
  auto add_stack = [&](int row, int from, int to) {
    int* at = own->data() + static_cast<std::size_t>(row) * L;
    for (int l = std::min(from, to) + 1; l < std::max(from, to); ++l) at[l] += 1;
  };
  for (const route::Segment& seg : tree_->segs) {
    const auto l = static_cast<std::size_t>(layers[seg.id]);
    (*own)[static_cast<std::size_t>(seg.parent + 1) * L + l] += nv;  // its track at both ends
    (*own)[static_cast<std::size_t>(seg.id + 1) * L + l] += nv;
    add_stack(seg.parent + 1, seg.parent < 0 ? tree_->root_pin_layer : layers[seg.parent],
              layers[seg.id]);
  }
  for (const route::SinkAttach& sink : tree_->sinks) {
    if (sink.seg_id < 0) continue;  // same cell as the driver: no wire via
    add_stack(sink.seg_id + 1, sink.pin_layer, layers[sink.seg_id]);
  }
}

void HeadroomCosts::begin(int net) {
  const auto& g = state_.design().grid;
  tree_ = &state_.tree(net);
  layers_ = &state_.layers(net);
  const std::size_t n = tree_->segs.size();
  CPLA_ASSERT(layers_->size() == n);
  const auto L = static_cast<std::size_t>(num_layers_);
  end_cells_.resize(n + 1);
  end_cells_[0] = g.cell_id(tree_->root.x, tree_->root.y);
  spans_.resize(n);
  for (const route::Segment& seg : tree_->segs) {
    CPLA_ASSERT_MSG(seg.a == (seg.parent < 0 ? tree_->root : tree_->segs[seg.parent].b),
                    "segment does not start at its parent's far end");
    Span& span = spans_[static_cast<std::size_t>(seg.id)];
    const bool a_first = seg.horizontal ? seg.a.x < seg.b.x : seg.a.y < seg.b.y;
    const grid::XY lo = a_first ? seg.a : seg.b;
    span.first_edge = seg.horizontal ? g.h_edge_id(lo.x, lo.y) : g.v_edge_id(lo.x, lo.y);
    span.first_cell = g.cell_id(lo.x, lo.y);
    span.cell_step = seg.horizontal ? 1 : g.xsize();
    span.length = seg.length();
    span.layer = (*layers_)[seg.id];
    span.first_end = a_first ? seg.parent + 1 : seg.id + 1;
    span.last_end = a_first ? seg.id + 1 : seg.parent + 1;
    span.sinks_begin = span.sinks_end = 0;
    end_cells_[static_cast<std::size_t>(seg.id) + 1] = g.cell_id(seg.b.x, seg.b.y);
  }
  end_loads(*layers_, &own_);
  // Each segment's sink pin layers in sink order (a counting sort by
  // segment).
  sink_layers_.resize(tree_->sinks.size());
  for (const route::SinkAttach& sink : tree_->sinks) {
    if (sink.seg_id >= 0) ++spans_[static_cast<std::size_t>(sink.seg_id)].sinks_end;
  }
  int at = 0;
  for (Span& span : spans_) {
    span.sinks_begin = at;
    at += span.sinks_end;
    span.sinks_end = span.sinks_begin;
  }
  for (const route::SinkAttach& sink : tree_->sinks) {
    if (sink.seg_id < 0) continue;
    Span& span = spans_[static_cast<std::size_t>(sink.seg_id)];
    sink_layers_[static_cast<std::size_t>(span.sinks_end++)] = sink.pin_layer;
  }

  // Via sites full at each child's junction, with the victim's own load
  // taken out.
  const std::size_t row = L + 1;
  full_below_.resize(n * row);
  for (const route::Segment& seg : tree_->segs) {
    if (seg.parent < 0) continue;  // root vias are priced by root_via
    const int cell = end_cells_[static_cast<std::size_t>(seg.parent) + 1];
    const int* own = own_.data() + static_cast<std::size_t>(seg.parent + 1) * L;
    int* counts = full_below_.data() + static_cast<std::size_t>(seg.id) * row;
    counts[0] = 0;
    for (int l = 0; l < num_layers_; ++l) {
      const int load = state_.via_load(l, cell) - own[l];
      counts[l + 1] = counts[l] + (load + 1 > state_.via_cap(l, cell) ? 1 : 0);
    }
  }
}

bool HeadroomCosts::adds_overflow(const std::vector<int>& fresh) {
  // Every slot the move touches is counted once: a moved segment's edges
  // and interior cells are its own, and each end cell's net change is
  // taken from the two end-load tables.
  auto excess = [](long load, long cap) { return std::max(0L, load - cap); };
  const int nv = state_.nv();
  long wire = 0;
  long via = 0;
  for (const Span& span : spans_) {
    const int to = fresh[static_cast<std::size_t>(&span - spans_.data())];
    if (to == span.layer) continue;
    for (int e = span.first_edge; e < span.first_edge + span.length; ++e) {
      const int off = state_.wire_usage(span.layer, e);
      const int on = state_.wire_usage(to, e);
      wire += excess(off - 1, state_.wire_cap(span.layer, e)) -
              excess(off, state_.wire_cap(span.layer, e)) +
              excess(on + 1, state_.wire_cap(to, e)) - excess(on, state_.wire_cap(to, e));
    }
    for (int i = 1; i < span.length; ++i) {
      const int cell = span.first_cell + i * span.cell_step;
      const int off = state_.via_load(span.layer, cell);
      const int on = state_.via_load(to, cell);
      via += excess(off - nv, state_.via_cap(span.layer, cell)) -
             excess(off, state_.via_cap(span.layer, cell)) +
             excess(on + nv, state_.via_cap(to, cell)) - excess(on, state_.via_cap(to, cell));
    }
  }
  end_loads(fresh, &fresh_own_);
  const auto L = static_cast<std::size_t>(num_layers_);
  for (std::size_t row = 0; row < end_cells_.size(); ++row) {
    for (std::size_t l = 0; l < L; ++l) {
      const int change = fresh_own_[row * L + l] - own_[row * L + l];
      if (change == 0) continue;
      const int load = state_.via_load(static_cast<int>(l), end_cells_[row]);
      const int cap = state_.via_cap(static_cast<int>(l), end_cells_[row]);
      via += excess(load + change, cap) - excess(load, cap);
    }
  }
  return wire > 0 || via > 0;
}

double HeadroomCosts::seg(int s, int l) const {
  const Span& span = spans_[static_cast<std::size_t>(s)];
  const int own_track = span.layer == l ? 1 : 0;
  const unsigned char* wanted = wanted_.data() + static_cast<std::size_t>(l) * stride_;
  const int* usage_row = state_.wire_usage_row(l);
  const int* cap_row = state_.design().grid.capacity_row(l);
  double cost = 0.0;
  for (int e = span.first_edge; e < span.first_edge + span.length; ++e) {
    if (wanted[e]) cost += 1e7;  // stay out of the corridor being cleared
    const int usage = usage_row[e] - own_track;
    const int cap = cap_row[e];
    if (usage + 1 > cap) {
      cost += 1e5 * (usage + 1 - cap);  // never trade into wire overflow
    } else {
      cost += static_cast<double>(usage) / std::max(1, cap);
    }
  }
  // Track occupancy consumes nv via sites per crossed cell (4d); a
  // displacement must not trade wire headroom for via overflow.
  const int nv = state_.nv();
  const int* vu = state_.via_usage_row(l);
  const int* tu = state_.track_usage_row(l);
  const int* vc = state_.via_cap_row(l);
  const auto L = static_cast<std::size_t>(num_layers_);
  const auto ul = static_cast<std::size_t>(l);
  for (int i = 0; i <= span.length; ++i) {
    const int cell = span.first_cell + i * span.cell_step;
    const int own = i == 0              ? own_[static_cast<std::size_t>(span.first_end) * L + ul]
                    : i == span.length ? own_[static_cast<std::size_t>(span.last_end) * L + ul]
                                       : nv * own_track;
    if (vu[cell] + nv * tu[cell] - own + nv > vc[cell]) cost += 1e4;
  }
  for (int k = span.sinks_begin; k < span.sinks_end; ++k) {
    cost += std::abs(l - sink_layers_[static_cast<std::size_t>(k)]);
  }
  return cost;
}

int make_headroom(assign::AssignState* state, const CriticalSet& critical,
                  const RoundTiming& timing, const VictimIndex& victims,
                  const DisplaceOptions& options) {
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
  // vertical one — the positions that hold wanted slots, and the lines
  // that hold any (as (direction, line) pairs), so the victim scan below
  // reads only those lines, each once.
  const int lines = std::max(g.xsize(), g.ysize());
  std::vector<std::pair<int, int>> wanted_span(static_cast<std::size_t>(g.num_layers()) * lines,
                                               {INT_MAX, INT_MIN});
  std::vector<char> line_listed(2 * static_cast<std::size_t>(lines), 0);
  std::vector<std::pair<bool, int>> wanted_lines;
  std::size_t num_wanted = 0;
  for (int net : critical.nets) {
    const route::SegTree& tree = state->tree(net);
    if (tree.segs.empty()) continue;
    const timing::NetTiming& t = timing.at(net).timing;
    for (const route::Segment& seg : tree.segs) {
      if (t.criticality[seg.id] < options.min_criticality) continue;
      const int current = state->layers(net)[seg.id];
      const int line = seg.horizontal ? seg.a.y : seg.a.x;
      for (int l : state->allowed_layers(seg.horizontal)) {
        if (l <= current) continue;  // headroom is only needed above
        std::pair<int, int>& span = wanted_span[static_cast<std::size_t>(l) * lines + line];
        int pos = seg.horizontal ? std::min(seg.a.x, seg.b.x) : std::min(seg.a.y, seg.b.y);
        state->for_each_edge(net, seg.id, [&](int e) {
          if (state->wire_cap(l, e) - state->wire_usage(l, e) < kHeadroom) {
            num_wanted += wanted[slot(l, e)] == 0 ? 1 : 0;
            wanted[slot(l, e)] = 1;
            span = {std::min(span.first, pos), std::max(span.second, pos)};
          }
          ++pos;
        });
        char& listed = line_listed[static_cast<std::size_t>(seg.horizontal ? 0 : lines) + line];
        if (span.first <= span.second && !listed) {
          listed = 1;
          wanted_lines.emplace_back(seg.horizontal, line);
        }
      }
    }
  }
  if (num_wanted == 0) return 0;

  // 2. Victim candidates: short non-released nets occupying wanted slots,
  //    ranked by how many wanted slots they block (clear the biggest
  //    blockers first).
  std::vector<int> blocked_by(static_cast<std::size_t>(state->num_nets()), 0);
  for (const auto& [horizontal, line] : wanted_lines) {
    // A line's edge ids are contiguous, ascending with the position.
    const int line_edge = horizontal ? g.h_edge_id(0, line) : g.v_edge_id(line, 0);
    for (const VictimIndex::Entry& entry : victims.line(horizontal, line)) {
      if (critical.released[entry.net] || !state->assigned(entry.net)) continue;
      const int l = state->layers(entry.net)[entry.seg];
      const std::pair<int, int>& span = wanted_span[static_cast<std::size_t>(l) * lines + line];
      // Wanted slots lie inside the span, so only the overlap can hold any.
      const int lo = std::max(entry.first, span.first);
      const int hi = std::min(entry.first + entry.length - 1, span.second);
      const unsigned char* row = wanted.data() + slot(l, line_edge);
      int& count = blocked_by[static_cast<std::size_t>(entry.net)];
      for (int pos = lo; pos <= hi; ++pos) count += row[pos];
    }
  }
  std::vector<std::pair<int, int>> ranked;  // (net, #wanted slots occupied)
  for (int net = 0; net < state->num_nets(); ++net) {
    if (blocked_by[net] > 0) ranked.emplace_back(net, blocked_by[net]);
  }
  // Tie-break on net id, so the victim sequence (hence the final
  // assignment) is a pure function of the input.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });

  // 3. Re-assign victims with the wanted slots priced as forbidden. A move
  //    that would worsen global wire or via overflow is skipped outright —
  //    the pass trades *placement*, never legality. The victim is priced in
  //    place and its move is checked read-only (HeadroomCosts), so only a
  //    kept move touches the state: a delta set_layers. The DP and its
  //    costs reuse their storage across trials.
  constexpr int kMaxVictimsPerRound = 48;
  int moved = 0;
  assign::NetDp dp;
  HeadroomCosts costs(*state, wanted, stride);
  for (const auto& victim : ranked) {
    if (moved >= kMaxVictimsPerRound) break;
    const int net = victim.first;
    const route::SegTree& tree = state->tree(net);
    costs.begin(net);
    const std::vector<int>& fresh = dp.solve(
        tree,
        [&](int s) -> const std::vector<int>& {
          return state->allowed_layers(tree.segs[s].horizontal);
        },
        [&](int s, int l) { return costs.seg(s, l); },
        [&](int, int l) { return costs.root_via(l); },
        [&](int c, int lp, int lc) { return costs.via(c, lp, lc); });
    if (fresh == state->layers(net)) continue;  // nowhere better to go
    if (costs.adds_overflow(fresh)) continue;    // legality first
    const long wire_before = state->wire_overflow();
    const long via_before = state->via_overflow();
    state->set_layers(net, fresh);
    CPLA_ASSERT(state->wire_overflow() <= wire_before && state->via_overflow() <= via_before);
    ++moved;
  }
  LOG_DEBUG("displace: %zu wanted slots, %d victims moved", num_wanted, moved);
  return moved;
}

}  // namespace cpla::core
