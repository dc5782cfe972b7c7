#include "src/serve/codec.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace cpla::serve {

namespace {

struct Crc32Table {
  std::uint32_t entry[256];
  constexpr Crc32Table() : entry() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      entry[i] = c;
    }
  }
};

constexpr Crc32Table kCrcTable;

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) c = kCrcTable.entry[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  if (pos_ + 8 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
  }
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void write_tree(ByteWriter* w, const route::SegTree& tree) {
  w->i32(tree.net_id);
  w->i32(tree.root.x);
  w->i32(tree.root.y);
  w->i32(tree.root_pin_layer);
  w->u32(static_cast<std::uint32_t>(tree.segs.size()));
  for (const route::Segment& s : tree.segs) {
    w->i32(s.id);
    w->i32(s.a.x);
    w->i32(s.a.y);
    w->i32(s.b.x);
    w->i32(s.b.y);
    w->u8(s.horizontal ? 1 : 0);
    w->i32(s.parent);
    w->u32(static_cast<std::uint32_t>(s.children.size()));
    for (int c : s.children) w->i32(c);
  }
  w->u32(static_cast<std::uint32_t>(tree.sinks.size()));
  for (const route::SinkAttach& sink : tree.sinks) {
    w->i32(sink.pin_index);
    w->i32(sink.seg_id);
    w->i32(sink.pin_layer);
  }
}

route::SegTree read_tree(ByteReader* r) {
  route::SegTree tree;
  tree.net_id = r->i32();
  tree.root.x = r->i32();
  tree.root.y = r->i32();
  tree.root_pin_layer = r->i32();
  const std::uint32_t num_segs = r->u32();
  for (std::uint32_t i = 0; i < num_segs && r->ok(); ++i) {
    route::Segment s;
    s.id = r->i32();
    s.a.x = r->i32();
    s.a.y = r->i32();
    s.b.x = r->i32();
    s.b.y = r->i32();
    s.horizontal = r->u8() != 0;
    s.parent = r->i32();
    const std::uint32_t num_children = r->u32();
    for (std::uint32_t c = 0; c < num_children && r->ok(); ++c) s.children.push_back(r->i32());
    tree.segs.push_back(std::move(s));
  }
  const std::uint32_t num_sinks = r->u32();
  for (std::uint32_t i = 0; i < num_sinks && r->ok(); ++i) {
    route::SinkAttach sink;
    sink.pin_index = r->i32();
    sink.seg_id = r->i32();
    sink.pin_layer = r->i32();
    tree.sinks.push_back(sink);
  }
  return tree;
}

void write_delta(ByteWriter* w, const eco::Delta& delta) {
  w->u8(static_cast<std::uint8_t>(delta.kind));
  w->i32(delta.net);
  w->u8(delta.released ? 1 : 0);
  w->i32(delta.layer);
  w->i32(delta.x);
  w->i32(delta.y);
  w->i32(delta.cap);
  write_tree(w, delta.tree);
  w->u32(static_cast<std::uint32_t>(delta.layers.size()));
  for (int l : delta.layers) w->i32(l);
}

eco::Delta read_delta(ByteReader* r) {
  eco::Delta d;
  d.kind = static_cast<eco::DeltaKind>(r->u8());
  d.net = r->i32();
  d.released = r->u8() != 0;
  d.layer = r->i32();
  d.x = r->i32();
  d.y = r->i32();
  d.cap = r->i32();
  d.tree = read_tree(r);
  const std::uint32_t num_layers = r->u32();
  for (std::uint32_t i = 0; i < num_layers && r->ok(); ++i) d.layers.push_back(r->i32());
  return d;
}

std::string serialize_state(const assign::AssignState& state,
                            const core::CriticalSet& critical) {
  ByteWriter w;
  const auto& g = state.design().grid;

  w.u32(static_cast<std::uint32_t>(g.num_layers()));
  for (int l = 0; l < g.num_layers(); ++l) {
    const int num_edges = g.num_edges_on_layer(l);
    w.u32(static_cast<std::uint32_t>(num_edges));
    for (int e = 0; e < num_edges; ++e) w.i32(g.edge_capacity(l, e));
  }

  w.u32(static_cast<std::uint32_t>(state.num_nets()));
  for (int net = 0; net < state.num_nets(); ++net) {
    write_tree(&w, state.tree(net));
    const std::vector<int>& layers = state.layers(net);
    w.u32(static_cast<std::uint32_t>(layers.size()));
    for (int l : layers) w.i32(l);
  }

  w.u32(static_cast<std::uint32_t>(critical.nets.size()));
  for (int net : critical.nets) w.i32(net);
  w.u32(static_cast<std::uint32_t>(critical.released.size()));
  for (char c : critical.released) w.u8(static_cast<std::uint8_t>(c));
  return w.take();
}

Status restore_state(std::string_view blob, grid::Design* design, assign::AssignState* state,
                     core::CriticalSet* critical) {
  CPLA_ASSERT(design != nullptr && state != nullptr && critical != nullptr);
  // Decode and check the whole blob before touching the triple: a rejected
  // blob leaves design, state and critical set exactly as they were.
  ByteReader r(blob);
  const auto& g = design->grid;

  const std::uint32_t num_layers = r.u32();
  CPLA_CHECK(r.ok() && num_layers == static_cast<std::uint32_t>(g.num_layers()),
             Status(StatusCode::kBadInput, "serve: checkpoint layer count mismatch"));
  std::vector<std::vector<int>> caps(static_cast<std::size_t>(g.num_layers()));
  for (int l = 0; l < g.num_layers(); ++l) {
    const std::uint32_t num_edges = r.u32();
    CPLA_CHECK(r.ok() && num_edges == static_cast<std::uint32_t>(g.num_edges_on_layer(l)),
               Status(StatusCode::kBadInput, "serve: checkpoint edge count mismatch"));
    caps[l].reserve(num_edges);
    for (std::uint32_t e = 0; e < num_edges && r.ok(); ++e) caps[l].push_back(r.i32());
    CPLA_CHECK(std::all_of(caps[l].begin(), caps[l].end(), [](int cap) { return cap >= 0; }),
               Status(StatusCode::kBadInput, "serve: negative checkpoint capacity"));
  }
  CPLA_CHECK(r.ok(), Status(StatusCode::kBadInput, "serve: truncated checkpoint capacities"));

  const std::uint32_t num_nets = r.u32();
  CPLA_CHECK(r.ok() && num_nets >= static_cast<std::uint32_t>(state->num_nets()),
             Status(StatusCode::kBadInput, "serve: checkpoint has fewer nets than the base"));
  std::vector<route::SegTree> trees;
  std::vector<std::vector<int>> net_layers;
  for (std::uint32_t net = 0; net < num_nets; ++net) {
    trees.push_back(read_tree(&r));
    std::vector<int>& layers = net_layers.emplace_back();
    const std::uint32_t num_net_layers = r.u32();
    for (std::uint32_t i = 0; i < num_net_layers && r.ok(); ++i) layers.push_back(r.i32());
    CPLA_CHECK(r.ok(), Status(StatusCode::kBadInput, "serve: truncated checkpoint net"));
    const Status tree_ok = eco::validate_tree(g, trees.back(), layers);
    CPLA_CHECK(tree_ok.is_ok(), Status(StatusCode::kBadInput, "serve: checkpoint net " +
                                                                  std::to_string(net) + ": " +
                                                                  tree_ok.message()));
  }

  core::CriticalSet restored;
  const std::uint32_t num_critical = r.u32();
  for (std::uint32_t i = 0; i < num_critical && r.ok(); ++i) restored.nets.push_back(r.i32());
  const std::uint32_t num_released = r.u32();
  for (std::uint32_t i = 0; i < num_released && r.ok(); ++i) {
    restored.released.push_back(static_cast<char>(r.u8()));
  }
  CPLA_CHECK(r.ok() && r.at_end(),
             Status(StatusCode::kBadInput, "serve: malformed checkpoint state blob"));
  // Every listed critical net is in range, flagged 1 in `released` and
  // listed once, and no other net is flagged.
  CPLA_CHECK(num_released <= num_nets,
             Status(StatusCode::kBadInput, "serve: checkpoint flags more nets than it has"));
  std::vector<char> unlisted = restored.released;
  bool critical_ok = true;
  for (int net : restored.nets) {
    critical_ok = critical_ok && net >= 0 && static_cast<std::size_t>(net) < unlisted.size() &&
                  unlisted[net] == 1;
    if (critical_ok) unlisted[net] = 0;
  }
  critical_ok = critical_ok && std::all_of(unlisted.begin(), unlisted.end(),
                                           [](char flag) { return flag == 0; });
  CPLA_CHECK(critical_ok,
             Status(StatusCode::kBadInput, "serve: checkpoint critical set is inconsistent"));

  for (int l = 0; l < g.num_layers(); ++l) {
    for (std::size_t e = 0; e < caps[l].size(); ++e) {
      design->grid.set_edge_capacity(l, static_cast<int>(e), caps[l][e]);
    }
  }
  for (std::size_t net = 0; net < trees.size(); ++net) {
    if (static_cast<int>(net) < state->num_nets()) {
      state->replace_tree(static_cast<int>(net), std::move(trees[net]),
                          std::move(net_layers[net]));
    } else {
      state->add_net(std::move(trees[net]), std::move(net_layers[net]));
    }
  }
  *critical = std::move(restored);
  return Status::ok();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_state(const assign::AssignState& state, const core::CriticalSet& critical) {
  return fnv1a64(serialize_state(state, critical));
}

}  // namespace cpla::serve
