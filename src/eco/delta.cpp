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

/// Structural sanity of an ECO-supplied tree: ids dense and topologically
/// ordered, segments axis-aligned and inside the grid, optional explicit
/// layers direction-consistent. Keeps malformed input out of the usage
/// maps (where it would trip hard asserts) and reports kBadInput instead.
Status validate_tree(const grid::GridGraph& g, const route::SegTree& tree,
                     const std::vector<int>& layers) {
  if (!layers.empty() && layers.size() != tree.segs.size()) {
    return Status(StatusCode::kBadInput, "eco: layers/segments size mismatch");
  }
  for (std::size_t i = 0; i < tree.segs.size(); ++i) {
    const route::Segment& s = tree.segs[i];
    if (s.id != static_cast<int>(i) || s.parent >= s.id) {
      return Status(StatusCode::kBadInput, "eco: tree segments not in topological id order");
    }
    const bool aligned = s.horizontal ? (s.a.y == s.b.y) : (s.a.x == s.b.x);
    if (!aligned) return Status(StatusCode::kBadInput, "eco: segment not axis-aligned");
    for (const grid::XY& p : {s.a, s.b}) {
      if (p.x < 0 || p.x >= g.xsize() || p.y < 0 || p.y >= g.ysize()) {
        return Status(StatusCode::kBadInput, "eco: segment endpoint outside the grid");
      }
    }
    if (!layers.empty()) {
      const int l = layers[i];
      if (l < 0 || l >= g.num_layers() || g.is_horizontal(l) != s.horizontal) {
        return Status(StatusCode::kBadInput, "eco: layer direction mismatch");
      }
    }
  }
  return Status::ok();
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
