#include "src/core/displace.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/assign/net_dp.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/util/rng.hpp"

namespace cpla::core {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the displacement pass as it was before in-place trial pricing, the
// victim line index and the read-only overflow check, kept verbatim apart
// from names. Each trial clears the victim, prices it against the cleared
// maps, applies the fresh layers and reverts an illegal move; the victim
// scan walks every short net's tree.
class ParentHeadroomCosts {
 public:
  ParentHeadroomCosts(const assign::AssignState& state, const std::vector<unsigned char>& wanted,
                      std::size_t stride)
      : state_(state),
        wanted_(wanted),
        stride_(stride),
        num_layers_(state.design().grid.num_layers()) {}

  void begin(int net) {
    const auto& g = state_.design().grid;
    net_ = net;
    tree_ = &state_.tree(net);
    const std::size_t row = static_cast<std::size_t>(num_layers_) + 1;
    full_below_.resize(tree_->segs.size() * row);
    for (const route::Segment& seg : tree_->segs) {
      if (seg.parent < 0) continue;
      const int cell = g.cell_id(seg.a.x, seg.a.y);
      int* counts = full_below_.data() + static_cast<std::size_t>(seg.id) * row;
      counts[0] = 0;
      for (int l = 0; l < num_layers_; ++l) {
        counts[l + 1] =
            counts[l] + (state_.via_load(l, cell) + 1 > state_.via_cap(l, cell) ? 1 : 0);
      }
    }
  }

  double seg(int s, int l) const {
    double cost = 0.0;
    state_.for_each_edge(net_, s, [&](int e) {
      if (wanted_[static_cast<std::size_t>(l) * stride_ + static_cast<std::size_t>(e)]) {
        cost += 1e7;
      }
      const int usage = state_.wire_usage(l, e);
      const int cap = state_.wire_cap(l, e);
      if (usage + 1 > cap) {
        cost += 1e5 * (usage + 1 - cap);
      } else {
        cost += static_cast<double>(usage) / std::max(1, cap);
      }
    });
    const int nv = state_.nv();
    state_.for_each_cell(net_, s, [&](int cell) {
      if (state_.via_load(l, cell) + nv > state_.via_cap(l, cell)) cost += 1e4;
    });
    for (const route::SinkAttach& sink : tree_->sinks) {
      if (sink.seg_id == s) cost += std::abs(l - sink.pin_layer);
    }
    return cost;
  }
  double root_via(int l) const {
    return static_cast<double>(std::abs(l - tree_->root_pin_layer));
  }
  double via(int c, int lp, int lc) const {
    const int lo = std::min(lp, lc) + 1;
    const int hi = std::max(lp, lc);
    const int* counts = full_below_.data() +
                        static_cast<std::size_t>(c) * (static_cast<std::size_t>(num_layers_) + 1);
    const int full = hi > lo ? counts[hi] - counts[lo] : 0;
    return std::abs(lp - lc) + 1e4 * full;
  }

 private:
  const assign::AssignState& state_;
  const std::vector<unsigned char>& wanted_;
  std::size_t stride_;
  int num_layers_;
  int net_ = -1;
  const route::SegTree* tree_ = nullptr;
  std::vector<int> full_below_;
};

int parent_make_headroom(assign::AssignState* state, const CriticalSet& critical,
                         const RoundTiming& timing, const DisplaceOptions& options) {
  const auto& g = state->design().grid;
  constexpr int kHeadroom = 1;
  const std::size_t stride =
      static_cast<std::size_t>(std::max(g.num_h_edges(), g.num_v_edges()));
  std::vector<unsigned char> wanted(static_cast<std::size_t>(g.num_layers()) * stride, 0);
  auto slot = [stride](int l, int e) {
    return static_cast<std::size_t>(l) * stride + static_cast<std::size_t>(e);
  };
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
        if (l <= current) continue;
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
      if (lo > span.second || lo + seg.length() - 1 < span.first) continue;
      state->for_each_edge(net, seg.id, [&](int e) {
        if (wanted[slot(l, e)]) blocked_by[net] += 1;
      });
    }
  }
  std::vector<std::pair<int, int>> victims;
  for (int net = 0; net < state->num_nets(); ++net) {
    if (blocked_by[net] > 0) victims.emplace_back(net, blocked_by[net]);
  }
  std::sort(victims.begin(), victims.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });

  constexpr int kMaxVictimsPerRound = 48;
  int moved = 0;
  long wire_ov = state->wire_overflow();
  long via_ov = state->via_overflow();
  assign::NetDp dp;
  ParentHeadroomCosts costs(*state, wanted, stride);
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
      state->set_layers(net, old_layers);
      continue;
    }
    state->set_layers(net, fresh);
    const long wire_now = state->wire_overflow();
    const long via_now = state->via_overflow();
    if (wire_now > wire_ov || via_now > via_ov) {
      state->set_layers(net, old_layers);
      continue;
    }
    wire_ov = wire_now;
    via_ov = via_now;
    ++moved;
  }
  return moved;
}

// Hand-built scenario: a critical net blocked below a top layer that is
// fully occupied by short non-critical nets; displacement must clear it.
class DisplaceTest : public ::testing::Test {
 protected:
  DisplaceTest() : design_("d", make_grid()) {}

  static grid::GridGraph make_grid() {
    grid::GridGraph g(16, 16, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 2);
    return g;
  }

  route::SegTree h_net(int id, int y, int x0, int x1) {
    grid::Net net;
    net.id = id;
    net.pins = {grid::Pin{x0, y, 0}, grid::Pin{x1, y, 0}};
    route::NetRoute r;
    for (int x = x0; x < x1; ++x) r.add_h(design_.grid.h_edge_id(x, y));
    return route::extract_tree(design_.grid, net, &r);
  }

  grid::Design design_;
};

TEST_F(DisplaceTest, ClearsBlockedTopLayer) {
  // Net 0: long critical net on layer 0 along y=2.
  // Nets 1, 2: short nets filling layer 2 (cap 2) over the same edges.
  std::vector<route::SegTree> trees;
  trees.push_back(h_net(0, 2, 1, 13));
  trees.push_back(h_net(1, 2, 1, 13));
  trees.push_back(h_net(2, 2, 1, 13));
  assign::AssignState state(&design_, std::move(trees));
  state.set_layers(0, {0});
  state.set_layers(1, {2});
  state.set_layers(2, {2});

  timing::RcTable rc(design_.grid);
  CriticalSet critical;
  critical.nets = {0};
  critical.released.assign(3, 0);
  critical.released[0] = 1;

  // Layer 2 over the corridor is full (cap 2, usage 2): the critical net
  // cannot move up until a victim is displaced.
  EXPECT_EQ(state.wire_usage(2, design_.grid.h_edge_id(5, 2)), 2);

  DisplaceOptions opt;
  opt.min_criticality = 0.0;  // the single net is trivially critical
  // Victims are 12 tiles long, below the default displacement cutoff.
  const int moved =
      make_headroom(&state, critical, freeze_timing(state, rc, critical.nets, {}),
                    VictimIndex(state), opt);
  EXPECT_GE(moved, 1);
  EXPECT_LT(state.wire_usage(2, design_.grid.h_edge_id(5, 2)), 2);
  // No overflow introduced anywhere.
  EXPECT_EQ(state.wire_overflow(), 0);
}

TEST_F(DisplaceTest, NoOpWhenNothingBlocked) {
  std::vector<route::SegTree> trees;
  trees.push_back(h_net(0, 2, 1, 13));
  trees.push_back(h_net(1, 8, 1, 13));  // far away
  assign::AssignState state(&design_, std::move(trees));
  state.set_layers(0, {0});
  state.set_layers(1, {2});

  timing::RcTable rc(design_.grid);
  CriticalSet critical;
  critical.nets = {0};
  critical.released.assign(2, 0);
  critical.released[0] = 1;

  DisplaceOptions opt;
  opt.min_criticality = 0.0;
  EXPECT_EQ(make_headroom(&state, critical, freeze_timing(state, rc, critical.nets, {}),
                    VictimIndex(state), opt), 0);
  EXPECT_EQ(state.layers(1), (std::vector<int>{2}));
}

TEST(Displace, NeverWorsensOverflowOnBenchmark) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = 71;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const long wire_before = bench.state->wire_overflow();
  const long via_before = bench.state->via_overflow();
  make_headroom(bench.state.get(), critical,
                freeze_timing(*bench.state, *bench.rc, critical.nets, {}),
                VictimIndex(*bench.state));
  EXPECT_LE(bench.state->wire_overflow(), wire_before);
  EXPECT_LE(bench.state->via_overflow(), via_before);
}

TEST(Displace, ReleasedNetsAreNeverVictims) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = 72;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  std::vector<std::vector<int>> released_before;
  for (int net : critical.nets) released_before.push_back(bench.state->layers(net));
  make_headroom(bench.state.get(), critical,
                freeze_timing(*bench.state, *bench.rc, critical.nets, {}),
                VictimIndex(*bench.state));
  for (std::size_t i = 0; i < critical.nets.size(); ++i) {
    EXPECT_EQ(bench.state->layers(critical.nets[i]), released_before[i]);
  }
}

// The in-place pass against the oracle, pass after pass on congested
// designs: the same moved count, the same layers for every net and the same
// usage totals. Between passes the released nets take random layers (a
// stand-in for the partition commits of a flow round), so every pass meets
// a new state.
TEST(Displace, InPlaceTrialsMatchTheClearAndApplyOracle) {
  int total_moved = 0;
  for (const std::uint64_t seed : {4243u, 4244u, 4245u}) {
    gen::SynthSpec spec;
    spec.xsize = spec.ysize = 14;
    spec.num_nets = 260;
    spec.num_layers = 8;
    spec.tracks_per_layer = 2;
    spec.seed = seed;
    Prepared bench = prepare(gen::generate(spec));
    assign::AssignState& state = *bench.state;
    assign::AssignState oracle = state;
    const VictimIndex victims(state);
    Rng rng(seed);
    for (int pass = 0; pass < 4; ++pass) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " pass " << pass);
      const CriticalSet critical = select_critical(state, *bench.rc, 0.05);
      DisplaceOptions opt;
      opt.min_criticality = pass % 2 == 0 ? 0.85 : 0.3;
      const int moved =
          make_headroom(&state, critical, freeze_timing(state, *bench.rc, critical.nets, {}),
                        victims, opt);
      const int expected = parent_make_headroom(
          &oracle, critical, freeze_timing(oracle, *bench.rc, critical.nets, {}), opt);
      ASSERT_EQ(moved, expected);
      total_moved += moved;
      for (int net = 0; net < state.num_nets(); ++net) {
        ASSERT_EQ(state.layers(net), oracle.layers(net)) << "net " << net;
      }
      ASSERT_EQ(state.wire_overflow(), oracle.wire_overflow());
      ASSERT_EQ(state.via_overflow(), oracle.via_overflow());
      ASSERT_EQ(state.via_count(), oracle.via_count());

      for (const int net : critical.nets) {
        std::vector<int> layers = state.layers(net);
        for (std::size_t s = 0; s < layers.size(); ++s) {
          const std::vector<int>& allowed =
              state.allowed_layers(state.tree(net).segs[s].horizontal);
          layers[s] = allowed[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(allowed.size()) - 1))];
        }
        state.set_layers(net, layers);
        oracle.set_layers(net, layers);
      }
    }
  }
  EXPECT_GT(total_moved, 20);  // the passes really displaced victims
}

// The premise of in-place pricing (HeadroomCosts): within one net, no two
// segments share a unit edge, a cell two segments cover is an end cell of
// both, every segment starts at its parent's far end (or the root) and far
// ends are distinct. extract_tree breaks segments at turns, branch points
// and pins; a tree that merged a branch point into a straight run would
// fail here.
TEST(Displace, SegmentsShareOnlyEndCells) {
  int checked = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    gen::SynthSpec spec;
    spec.xsize = spec.ysize = 20;
    spec.num_nets = 220;
    spec.num_layers = 6;
    spec.tracks_per_layer = 3;
    spec.seed = seed;
    Prepared bench = prepare(gen::generate(spec));
    const assign::AssignState& state = *bench.state;
    const auto& g = state.design().grid;
    for (int net = 0; net < state.num_nets(); ++net) {
      const route::SegTree& tree = state.tree(net);
      std::set<std::pair<bool, int>> edges;        // (horizontal, edge id)
      std::map<int, std::vector<int>> covered_by;  // cell -> segments
      std::set<int> far_ends;
      for (const route::Segment& seg : tree.segs) {
        ASSERT_GE(seg.length(), 1) << "net " << net;
        ASSERT_EQ(seg.a, seg.parent < 0 ? tree.root : tree.segs[seg.parent].b) << "net " << net;
        ASSERT_TRUE(far_ends.insert(g.cell_id(seg.b.x, seg.b.y)).second) << "net " << net;
        state.for_each_edge(net, seg.id, [&](int e) {
          ASSERT_TRUE(edges.insert({seg.horizontal, e}).second)
              << "net " << net << " shares edge " << e;
        });
        state.for_each_cell(net, seg.id, [&](int cell) { covered_by[cell].push_back(seg.id); });
      }
      for (const auto& [cell, segs] : covered_by) {
        if (segs.size() < 2) continue;
        for (const int s : segs) {
          const route::Segment& seg = tree.segs[static_cast<std::size_t>(s)];
          ASSERT_TRUE(cell == g.cell_id(seg.a.x, seg.a.y) || cell == g.cell_id(seg.b.x, seg.b.y))
              << "net " << net << " cell " << cell << " is inside segment " << s;
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 800);
}

}  // namespace
}  // namespace cpla::core
