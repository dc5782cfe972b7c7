#include "src/assign/state.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace cpla::assign {

AssignState::AssignState(const grid::Design* design, std::vector<route::SegTree> trees)
    : design_(design), trees_(std::move(trees)) {
  const auto& g = design_->grid;
  layers_.resize(trees_.size());
  nv_ = std::max(1, g.geom().vias_per_track());

  wire_usage_.resize(g.num_layers());
  via_usage_.resize(g.num_layers());
  track_usage_.resize(g.num_layers());
  via_cap_.resize(g.num_layers());
  for (int l = 0; l < g.num_layers(); ++l) {
    wire_usage_[l].assign(static_cast<std::size_t>(g.num_edges_on_layer(l)), 0);
    via_usage_[l].assign(static_cast<std::size_t>(g.num_cells()), 0);
    track_usage_[l].assign(static_cast<std::size_t>(g.num_cells()), 0);
    via_cap_[l].resize(static_cast<std::size_t>(g.num_cells()));
    for (int y = 0; y < g.ysize(); ++y) {
      for (int x = 0; x < g.xsize(); ++x) {
        via_cap_[l][g.cell_id(x, y)] = g.via_capacity(l, x, y);
      }
    }
    if (g.is_horizontal(l)) {
      h_layers_.push_back(l);
    } else {
      v_layers_.push_back(l);
    }
  }
  CPLA_ASSERT_MSG(!h_layers_.empty() && !v_layers_.empty(),
                  "need at least one layer per direction");
}

void AssignState::sync_wire_total() {
  const auto& g = design_->grid;
  if (wire_stamp_ != g.capacity_stamp()) {
    wire_overflow_ = scan_wire_overflow();
    wire_stamp_ = g.capacity_stamp();
  }
}

void AssignState::apply_segment(int net, int seg, int l, int delta) {
  const auto& g = design_->grid;
  CPLA_ASSERT_MSG(g.is_horizontal(l) == trees_[net].segs[seg].horizontal,
                  "layer direction mismatch");
  auto excess = [](int load, int cap) { return static_cast<long>(std::max(0, load - cap)); };
  for_each_edge(net, seg, [&](int e) {
    int& usage = wire_usage_[l][e];
    const int cap = g.edge_capacity(l, e);
    wire_overflow_ -= excess(usage, cap);
    usage += delta;
    wire_overflow_ += excess(usage, cap);
  });
  for_each_cell(net, seg, [&](int cell) {
    const int load = via_load(l, cell);
    track_usage_[l][cell] += delta;
    via_overflow_ +=
        excess(load + nv_ * delta, via_cap_[l][cell]) - excess(load, via_cap_[l][cell]);
  });
}

void AssignState::apply_stack(const Stack& stack, int delta) {
  auto excess = [](int load, int cap) { return static_cast<long>(std::max(0, load - cap)); };
  via_count_ += static_cast<long>(delta) * (stack.hi - stack.lo);
  const int cell = design_->grid.cell_id(stack.x, stack.y);
  for (int l = stack.lo + 1; l < stack.hi; ++l) {
    const int load = via_load(l, cell);
    via_usage_[l][cell] += delta;
    via_overflow_ += excess(load + delta, via_cap_[l][cell]) - excess(load, via_cap_[l][cell]);
  }
}

void AssignState::apply_net(int net, int delta) {
  sync_wire_total();
  const auto& layer_of = layers_[net];
  for (const route::Segment& s : trees_[net].segs) apply_segment(net, s.id, layer_of[s.id], delta);
  for_each_via(net, layer_of,
               [&](int x, int y, int lo, int hi) { apply_stack({x, y, lo, hi}, delta); });
}

void AssignState::set_layers(int net, const std::vector<int>& layers) {
  CPLA_ASSERT(layers.size() == trees_[net].segs.size());
  std::vector<int>& old = layers_[net];
  if (old.empty()) {
    old = layers;
    apply_net(net, +1);
    return;
  }
  // Reassignment touches only what moved: the wires and tracks of changed
  // segments, and the via stacks at their ends. Usage is additive per
  // slot and every total telescopes, so this lands on exactly the state
  // (totals included) that clearing and reapplying the whole net would.
  sync_wire_total();
  const route::SegTree& tree = trees_[net];
  auto moved = [&](int s) { return s >= 0 && old[s] != layers[s]; };
  for (const route::Segment& s : tree.segs) {
    if (!moved(s.id) && !moved(s.parent)) continue;
    apply_stack(segment_stack(tree, s, old), -1);
    apply_stack(segment_stack(tree, s, layers), +1);
  }
  for (const route::SinkAttach& sink : tree.sinks) {
    if (!moved(sink.seg_id)) continue;
    apply_stack(sink_stack(tree, sink, old), -1);
    apply_stack(sink_stack(tree, sink, layers), +1);
  }
  for (const route::Segment& s : tree.segs) {
    if (!moved(s.id)) continue;
    apply_segment(net, s.id, old[s.id], -1);
    apply_segment(net, s.id, layers[s.id], +1);
  }
  old = layers;
}

void AssignState::clear_net(int net) {
  if (layers_[net].empty()) return;
  apply_net(net, -1);
  layers_[net].clear();
}

void AssignState::replace_tree(int net, route::SegTree tree, std::vector<int> layers) {
  clear_net(net);
  tree.net_id = net;
  trees_[net] = std::move(tree);
  if (trees_[net].segs.empty()) return;
  if (layers.empty()) layers = default_layers(trees_[net]);
  set_layers(net, layers);
}

int AssignState::add_net(route::SegTree tree, std::vector<int> layers) {
  const int net = static_cast<int>(trees_.size());
  tree.net_id = net;
  trees_.push_back(std::move(tree));
  layers_.emplace_back();
  if (!trees_[net].segs.empty()) {
    if (layers.empty()) layers = default_layers(trees_[net]);
    set_layers(net, layers);
  }
  return net;
}

void AssignState::remove_net(int net) {
  clear_net(net);
  route::SegTree empty;
  empty.net_id = net;
  trees_[net] = std::move(empty);
}

std::vector<int> AssignState::default_layers(const route::SegTree& tree) const {
  std::vector<int> layers(tree.segs.size());
  for (const route::Segment& s : tree.segs) {
    layers[s.id] = allowed_layers(s.horizontal).front();
  }
  return layers;
}

long AssignState::scan_wire_overflow() const {
  const auto& g = design_->grid;
  long sum = 0;
  for (int l = 0; l < g.num_layers(); ++l) {
    for (int e = 0; e < g.num_edges_on_layer(l); ++e) {
      sum += std::max(0, wire_usage_[l][e] - g.edge_capacity(l, e));
    }
  }
  return sum;
}

}  // namespace cpla::assign
