#include "src/eco/delta.hpp"

#include <algorithm>

namespace cpla::eco {

const char* to_string(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kNetRerouted: return "net-rerouted";
    case DeltaKind::kCriticalityChanged: return "criticality-changed";
    case DeltaKind::kCapacityAdjusted: return "capacity-adjusted";
    case DeltaKind::kNetAdded: return "net-added";
    case DeltaKind::kNetRemoved: return "net-removed";
  }
  return "unknown";
}

namespace {

bool valid_net(const assign::AssignState& state, int net) {
  return net >= 0 && net < state.num_nets();
}

void promote(core::CriticalSet* critical, int net) {
  if (net < static_cast<int>(critical->released.size()) && critical->released[net]) return;
  if (net >= static_cast<int>(critical->released.size())) {
    critical->released.resize(static_cast<std::size_t>(net) + 1, 0);
  }
  critical->released[net] = 1;
  critical->nets.push_back(net);
}

void demote(core::CriticalSet* critical, int net) {
  if (net >= static_cast<int>(critical->released.size()) || !critical->released[net]) return;
  critical->released[net] = 0;
  critical->nets.erase(std::remove(critical->nets.begin(), critical->nets.end(), net),
                       critical->nets.end());
}

}  // namespace

Status validate_tree(const grid::GridGraph& g, const route::SegTree& tree,
                     const std::vector<int>& layers) {
  auto inside = [&](const grid::XY& p) {
    return p.x >= 0 && p.x < g.xsize() && p.y >= 0 && p.y < g.ysize();
  };
  auto metal = [&](int l) { return l >= 0 && l < g.num_layers(); };
  const int num_segs = static_cast<int>(tree.segs.size());
  if (!layers.empty() && layers.size() != tree.segs.size()) {
    return Status(StatusCode::kBadInput, "eco: layers/segments size mismatch");
  }
  if (!inside(tree.root) || !metal(tree.root_pin_layer)) {
    return Status(StatusCode::kBadInput, "eco: tree root outside the grid or layer stack");
  }
  std::size_t num_children = 0;
  for (int i = 0; i < num_segs; ++i) {
    const route::Segment& s = tree.segs[static_cast<std::size_t>(i)];
    if (s.id != i || s.parent < -1 || s.parent >= s.id) {
      return Status(StatusCode::kBadInput, "eco: tree segments not in topological id order");
    }
    for (int c : s.children) {
      if (c <= i || c >= num_segs || tree.segs[static_cast<std::size_t>(c)].parent != i) {
        return Status(StatusCode::kBadInput, "eco: tree child list disagrees with the parents");
      }
    }
    num_children += s.children.size();
    const bool aligned = s.horizontal ? (s.a.y == s.b.y) : (s.a.x == s.b.x);
    if (!aligned) return Status(StatusCode::kBadInput, "eco: segment not axis-aligned");
    if (!inside(s.a) || !inside(s.b)) {
      return Status(StatusCode::kBadInput, "eco: segment endpoint outside the grid");
    }
    if (!layers.empty()) {
      const int l = layers[static_cast<std::size_t>(i)];
      if (!metal(l) || g.is_horizontal(l) != s.horizontal) {
        return Status(StatusCode::kBadInput, "eco: layer direction mismatch");
      }
    }
  }
  const auto rooted = std::count_if(tree.segs.begin(), tree.segs.end(),
                                    [](const route::Segment& s) { return s.parent < 0; });
  if (num_children + static_cast<std::size_t>(rooted) != tree.segs.size()) {
    return Status(StatusCode::kBadInput, "eco: tree child list disagrees with the parents");
  }
  for (const route::SinkAttach& sink : tree.sinks) {
    if (sink.seg_id < -1 || sink.seg_id >= num_segs || !metal(sink.pin_layer)) {
      return Status(StatusCode::kBadInput, "eco: sink attach outside the tree or layer stack");
    }
  }
  return Status::ok();
}

Delta Delta::net_rerouted(int net, route::SegTree tree, std::vector<int> layers) {
  Delta d;
  d.kind = DeltaKind::kNetRerouted;
  d.net = net;
  d.tree = std::move(tree);
  d.layers = std::move(layers);
  return d;
}

Delta Delta::criticality_changed(int net, bool released) {
  Delta d;
  d.kind = DeltaKind::kCriticalityChanged;
  d.net = net;
  d.released = released;
  return d;
}

Delta Delta::capacity_adjusted(int layer, int x, int y, int cap) {
  Delta d;
  d.kind = DeltaKind::kCapacityAdjusted;
  d.layer = layer;
  d.x = x;
  d.y = y;
  d.cap = cap;
  return d;
}

Delta Delta::net_added(route::SegTree tree, std::vector<int> layers) {
  Delta d;
  d.kind = DeltaKind::kNetAdded;
  d.tree = std::move(tree);
  d.layers = std::move(layers);
  return d;
}

Delta Delta::net_removed(int net) {
  Delta d;
  d.kind = DeltaKind::kNetRemoved;
  d.net = net;
  return d;
}

Result<int> apply_delta(const Delta& delta, grid::Design* design, assign::AssignState* state,
                        core::CriticalSet* critical) {
  CPLA_ASSERT(design != nullptr && state != nullptr && critical != nullptr);
  CPLA_ASSERT_MSG(&state->design() == design, "state must be built on this design");
  const auto& g = design->grid;

  switch (delta.kind) {
    case DeltaKind::kNetRerouted: {
      CPLA_CHECK(valid_net(*state, delta.net),
                 Status(StatusCode::kBadInput, "eco: reroute of an unknown net"));
      CPLA_CHECK_OK(validate_tree(g, delta.tree, delta.layers));
      state->replace_tree(delta.net, delta.tree, delta.layers);
      if (delta.tree.segs.empty()) demote(critical, delta.net);
      return delta.net;
    }
    case DeltaKind::kCriticalityChanged: {
      CPLA_CHECK(valid_net(*state, delta.net),
                 Status(StatusCode::kBadInput, "eco: criticality change of an unknown net"));
      if (delta.released) {
        CPLA_CHECK(!state->tree(delta.net).segs.empty(),
                   Status(StatusCode::kBadInput, "eco: cannot release a net with no wire"));
        promote(critical, delta.net);
      } else {
        demote(critical, delta.net);
      }
      return delta.net;
    }
    case DeltaKind::kCapacityAdjusted: {
      CPLA_CHECK(delta.layer >= 0 && delta.layer < g.num_layers(),
                 Status(StatusCode::kBadInput, "eco: capacity change on an unknown layer"));
      CPLA_CHECK(delta.cap >= 0, Status(StatusCode::kBadInput, "eco: negative capacity"));
      const bool horizontal = g.is_horizontal(delta.layer);
      const bool in_range = horizontal
                                ? (delta.x >= 0 && delta.x < g.xsize() - 1 && delta.y >= 0 &&
                                   delta.y < g.ysize())
                                : (delta.x >= 0 && delta.x < g.xsize() && delta.y >= 0 &&
                                   delta.y < g.ysize() - 1);
      CPLA_CHECK(in_range, Status(StatusCode::kBadInput, "eco: capacity edge outside the grid"));
      const int edge =
          horizontal ? g.h_edge_id(delta.x, delta.y) : g.v_edge_id(delta.x, delta.y);
      design->grid.set_edge_capacity(delta.layer, edge, delta.cap);
      return -1;
    }
    case DeltaKind::kNetAdded: {
      CPLA_CHECK_OK(validate_tree(g, delta.tree, delta.layers));
      const int net = state->add_net(delta.tree, delta.layers);
      if (net >= static_cast<int>(critical->released.size())) {
        critical->released.resize(static_cast<std::size_t>(net) + 1, 0);
      }
      return net;
    }
    case DeltaKind::kNetRemoved: {
      CPLA_CHECK(valid_net(*state, delta.net),
                 Status(StatusCode::kBadInput, "eco: removal of an unknown net"));
      demote(critical, delta.net);
      state->remove_net(delta.net);
      return delta.net;
    }
  }
  return Status(StatusCode::kBadInput, "eco: unknown delta kind");
}

}  // namespace cpla::eco
