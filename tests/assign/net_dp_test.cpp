#include "src/assign/net_dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <tuple>

#include "src/core/critical.hpp"
#include "src/core/displace.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/util/rng.hpp"

namespace cpla::assign {
namespace {

/// The DP's cost callbacks as std::function objects: the interface the DP
/// had before its functors became template parameters, which the oracle
/// below still takes.
struct NetDpCosts {
  std::function<double(int s, int l)> seg_cost;
  std::function<double(int s, int l)> root_via_cost;
  std::function<double(int c, int lp, int lc)> via_cost;
};

std::vector<int> solve_net_dp(const route::SegTree& tree,
                              const std::function<const std::vector<int>&(int s)>& allowed,
                              const NetDpCosts& costs) {
  NetDp dp;
  return dp.solve(tree, allowed, costs.seg_cost, costs.root_via_cost, costs.via_cost);
}

/// Builds a random segment tree (synthetic shapes, not geometric) to
/// exercise the DP; directions alternate from the parent.
route::SegTree random_tree(cpla::Rng* rng, int num_segs) {
  route::SegTree tree;
  tree.net_id = 0;
  tree.root = {1, 1};
  for (int i = 0; i < num_segs; ++i) {
    route::Segment seg;
    seg.id = i;
    seg.parent = (i == 0) ? -1 : static_cast<int>(rng->uniform_int(0, i - 1));
    seg.horizontal = (i == 0) ? true : !tree.segs[seg.parent].horizontal;
    seg.a = {1, 1};
    seg.b = seg.horizontal ? grid::XY{1 + static_cast<int>(rng->uniform_int(1, 5)), 1}
                           : grid::XY{1, 1 + static_cast<int>(rng->uniform_int(1, 5))};
    if (seg.parent >= 0) tree.segs[seg.parent].children.push_back(i);
    tree.segs.push_back(seg);
  }
  return tree;
}

TEST(NetDp, SingleSegmentPicksCheapestLayer) {
  route::SegTree tree;
  tree.root = {0, 0};
  route::Segment seg;
  seg.id = 0;
  seg.horizontal = true;
  seg.a = {0, 0};
  seg.b = {3, 0};
  tree.segs.push_back(seg);

  const std::vector<int> layers = {0, 2};
  NetDpCosts costs;
  costs.seg_cost = [](int, int l) { return l == 0 ? 7.0 : 3.0; };
  costs.root_via_cost = [](int, int) { return 0.0; };
  costs.via_cost = [](int, int, int) { return 0.0; };
  auto allowed = [&](int) -> const std::vector<int>& { return layers; };
  EXPECT_EQ(solve_net_dp(tree, allowed, costs), (std::vector<int>{2}));
}

TEST(NetDp, RootViaTiltsChoice) {
  route::SegTree tree;
  tree.root = {0, 0};
  route::Segment seg;
  seg.id = 0;
  seg.horizontal = true;
  seg.a = {0, 0};
  seg.b = {3, 0};
  tree.segs.push_back(seg);

  const std::vector<int> layers = {0, 2};
  NetDpCosts costs;
  costs.seg_cost = [](int, int l) { return l == 0 ? 7.0 : 3.0; };
  costs.root_via_cost = [](int, int l) { return l == 2 ? 10.0 : 0.0; };
  costs.via_cost = [](int, int, int) { return 0.0; };
  auto allowed = [&](int) -> const std::vector<int>& { return layers; };
  EXPECT_EQ(solve_net_dp(tree, allowed, costs), (std::vector<int>{0}));
}

TEST(NetDp, ViaCouplingPropagates) {
  // Chain of two segments; child strongly prefers layer 3, but via cost
  // from parent layer 0 to 3 is huge, so optimum is (0 -> 1).
  cpla::Rng rng(1);
  route::SegTree tree = random_tree(&rng, 1);
  route::Segment child;
  child.id = 1;
  child.parent = 0;
  child.horizontal = false;
  child.a = child.b = {1, 1};
  child.b.y = 3;
  tree.segs[0].children.push_back(1);
  tree.segs.push_back(child);

  const std::vector<int> h_layers = {0, 2};
  const std::vector<int> v_layers = {1, 3};
  NetDpCosts costs;
  costs.seg_cost = [](int s, int l) {
    if (s == 1) return l == 3 ? 1.0 : 2.0;  // slightly prefers 3
    return l == 0 ? 1.0 : 50.0;             // parent pinned to 0
  };
  costs.root_via_cost = [](int, int) { return 0.0; };
  costs.via_cost = [](int, int lp, int lc) { return 10.0 * std::abs(lp - lc); };
  auto allowed = [&](int s) -> const std::vector<int>& {
    return tree.segs[s].horizontal ? h_layers : v_layers;
  };
  EXPECT_EQ(solve_net_dp(tree, allowed, costs), (std::vector<int>{0, 1}));
}

// Property: DP result matches brute-force enumeration on random trees.
class NetDpSweep : public ::testing::TestWithParam<int> {};

TEST_P(NetDpSweep, MatchesBruteForce) {
  cpla::Rng rng(700 + static_cast<std::uint64_t>(GetParam()));
  const int num_segs = 1 + GetParam() % 8;
  const route::SegTree tree = random_tree(&rng, num_segs);

  const std::vector<int> h_layers = {0, 2};
  const std::vector<int> v_layers = {1, 3};
  auto allowed = [&](int s) -> const std::vector<int>& {
    return tree.segs[s].horizontal ? h_layers : v_layers;
  };

  // Random but deterministic cost tables.
  std::vector<std::array<double, 4>> seg_cost(num_segs);
  for (auto& row : seg_cost)
    for (auto& v : row) v = rng.uniform(0.0, 10.0);
  std::vector<std::array<double, 16>> via_cost(num_segs);
  for (auto& row : via_cost)
    for (auto& v : row) v = rng.uniform(0.0, 5.0);

  NetDpCosts costs;
  costs.seg_cost = [&](int s, int l) { return seg_cost[s][l]; };
  costs.root_via_cost = [&](int s, int l) { return 0.1 * l + 0.01 * s; };
  costs.via_cost = [&](int c, int lp, int lc) { return via_cost[c][lp * 4 + lc]; };

  auto total_of = [&](const std::vector<int>& pick) {
    double total = 0.0;
    for (int s = 0; s < num_segs; ++s) {
      total += costs.seg_cost(s, pick[s]);
      const int parent = tree.segs[s].parent;
      if (parent < 0) {
        total += costs.root_via_cost(s, pick[s]);
      } else {
        total += costs.via_cost(s, pick[parent], pick[s]);
      }
    }
    return total;
  };

  // Brute force over 2^num_segs combos (each segment has 2 options).
  double best = 1e300;
  std::vector<int> pick(num_segs);
  for (int mask = 0; mask < (1 << num_segs); ++mask) {
    for (int s = 0; s < num_segs; ++s) {
      pick[s] = allowed(s)[(mask >> s) & 1];
    }
    best = std::min(best, total_of(pick));
  }

  const std::vector<int> dp = solve_net_dp(tree, allowed, costs);
  EXPECT_NEAR(total_of(dp), best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, NetDpSweep, ::testing::Range(0, 24));

// The nested-vector DP that solve_net_dp replaced with flat tables, kept
// verbatim as an oracle: same evaluation order, same strict `<`.
std::vector<int> parent_solve_net_dp(
    const route::SegTree& tree, const std::function<const std::vector<int>&(int s)>& allowed,
    const NetDpCosts& costs) {
  const std::size_t n = tree.segs.size();
  std::vector<int> result(n, 0);
  if (n == 0) return result;
  std::vector<std::vector<double>> best(n);
  std::vector<std::vector<std::vector<int>>> choice(n);
  for (std::size_t i = n; i-- > 0;) {
    const route::Segment& seg = tree.segs[i];
    const std::vector<int>& opts = allowed(static_cast<int>(i));
    best[i].assign(opts.size(), 0.0);
    choice[i].assign(opts.size(), std::vector<int>(seg.children.size(), 0));
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const int l = opts[k];
      double total = costs.seg_cost(static_cast<int>(i), l);
      for (std::size_t ci = 0; ci < seg.children.size(); ++ci) {
        const int c = seg.children[ci];
        const std::vector<int>& copts = allowed(c);
        double child_best = std::numeric_limits<double>::infinity();
        int child_pick = 0;
        for (std::size_t ck = 0; ck < copts.size(); ++ck) {
          const double v = best[c][ck] + costs.via_cost(c, l, copts[ck]);
          if (v < child_best) {
            child_best = v;
            child_pick = static_cast<int>(ck);
          }
        }
        total += child_best;
        choice[i][k][ci] = child_pick;
      }
      best[i][k] = total;
    }
  }
  std::vector<int> pick(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (tree.segs[i].parent >= 0) continue;
    const std::vector<int>& opts = allowed(static_cast<int>(i));
    double root_best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < opts.size(); ++k) {
      const double v = best[i][k] + costs.root_via_cost(static_cast<int>(i), opts[k]);
      if (v < root_best) {
        root_best = v;
        pick[i] = static_cast<int>(k);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const route::Segment& seg = tree.segs[i];
    result[i] = allowed(static_cast<int>(i))[pick[i]];
    for (std::size_t ci = 0; ci < seg.children.size(); ++ci) {
      pick[seg.children[ci]] = choice[i][pick[i]][ci];
    }
  }
  return result;
}

// Bit identity with the oracle over seeded random forests: option lists of
// 1-4 layers per segment and small integer costs, so ties are common and
// the first-wins rule decides many picks. Every cost callback is logged,
// so the evaluation order is compared too.
TEST(NetDp, FlatTablesMatchTheNestedVectorOracle) {
  using Call = std::tuple<char, int, int, int>;
  const std::vector<std::vector<int>> option_sets = {
      {0}, {0, 2}, {2, 0, 4}, {0, 2, 4, 6}, {1}, {1, 3}, {3, 1, 5}, {1, 3, 5, 7}};
  cpla::Rng rng(4242);
  NetDp dp;  // one solver throughout: its tables are reused across trees
  for (int trial = 0; trial < 300; ++trial) {
    const int num_segs = 1 + static_cast<int>(rng.uniform_int(0, 30));
    route::SegTree tree = random_tree(&rng, num_segs);
    // Cut a few subtrees loose: a forest has several roots.
    for (int s = 1; s < num_segs; ++s) {
      if (rng.uniform_int(0, 9) != 0) continue;
      auto& siblings = tree.segs[tree.segs[s].parent].children;
      siblings.erase(std::find(siblings.begin(), siblings.end(), s));
      tree.segs[s].parent = -1;
    }
    std::vector<int> set_of(static_cast<std::size_t>(num_segs));
    for (int s = 0; s < num_segs; ++s) {
      set_of[s] = static_cast<int>(rng.uniform_int(0, 3)) + (tree.segs[s].horizontal ? 0 : 4);
    }
    auto allowed = [&](int s) -> const std::vector<int>& { return option_sets[set_of[s]]; };
    std::vector<double> seg_table(static_cast<std::size_t>(num_segs) * 8);
    std::vector<double> via_table(static_cast<std::size_t>(num_segs) * 64);
    for (double& v : seg_table) v = static_cast<double>(rng.uniform_int(0, 3));
    for (double& v : via_table) v = static_cast<double>(rng.uniform_int(0, 2));

    std::vector<Call> log;
    auto seg_cost = [&](int s, int l) {
      log.emplace_back('s', s, l, -1);
      return seg_table[static_cast<std::size_t>(s) * 8 + l];
    };
    auto root_via_cost = [&](int s, int l) {
      log.emplace_back('r', s, l, -1);
      return static_cast<double>(l % 2);
    };
    auto via_cost = [&](int c, int lp, int lc) {
      log.emplace_back('v', c, lp, lc);
      return via_table[static_cast<std::size_t>(c) * 64 + lp * 8 + lc];
    };

    const std::vector<int> expected =
        parent_solve_net_dp(tree, allowed, NetDpCosts{seg_cost, root_via_cost, via_cost});
    const std::vector<Call> expected_log = std::move(log);
    log.clear();
    const std::vector<int> got = dp.solve(tree, allowed, seg_cost, root_via_cost, via_cost);
    ASSERT_EQ(got, expected) << "trial " << trial;
    ASSERT_EQ(log, expected_log) << "trial " << trial;
  }

  // The victim-trial costs of victim displacement, against the per-call
  // std::function costs they replaced (kept verbatim below): same picks,
  // same calls, and every returned cost bit for bit, the via cost read
  // from its prefix counts included. A congested design with a random
  // wanted map makes forbidden slots and full via sites common.
  using Priced = std::tuple<char, int, int, int, std::uint64_t>;
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 14;
  spec.num_nets = 260;
  spec.num_layers = 8;
  spec.tracks_per_layer = 2;
  spec.seed = 4243;
  core::Prepared bench = core::prepare(gen::generate(spec));
  AssignState& state = *bench.state;
  const auto& g = state.design().grid;
  const std::size_t stride =
      static_cast<std::size_t>(std::max(g.num_h_edges(), g.num_v_edges()));
  std::vector<unsigned char> wanted(static_cast<std::size_t>(g.num_layers()) * stride, 0);
  for (unsigned char& w : wanted) w = rng.uniform_int(0, 5) == 0 ? 1 : 0;
  auto slot = [stride](int l, int e) {
    return static_cast<std::size_t>(l) * stride + static_cast<std::size_t>(e);
  };
  core::HeadroomCosts headroom(state, wanted, stride);
  std::vector<Priced> priced;
  auto log_cost = [&](char kind, int a, int b, int c, double v) {
    priced.emplace_back(kind, a, b, c, std::bit_cast<std::uint64_t>(v));
    return v;
  };
  int penalized_vias = 0;
  int compared = 0;
  for (int net = 0; net < state.num_nets(); ++net) {
    const route::SegTree& tree = state.tree(net);
    if (tree.segs.empty()) continue;
    const std::vector<int> layers = state.layers(net);
    state.clear_net(net);
    auto allowed = [&](int s) -> const std::vector<int>& {
      return state.allowed_layers(tree.segs[s].horizontal);
    };

    NetDpCosts parent;
    const int nv = state.nv();
    parent.seg_cost = [&](int s, int l) {
      double cost = 0.0;
      state.for_each_edge(net, s, [&](int e) {
        if (wanted[slot(l, e)]) {
          cost += 1e7;  // stay out of the corridor being cleared
        }
        const int usage = state.wire_usage(l, e);
        const int cap = state.wire_cap(l, e);
        if (usage + 1 > cap) {
          cost += 1e5 * (usage + 1 - cap);  // never trade into wire overflow
        } else {
          cost += static_cast<double>(usage) / std::max(1, cap);
        }
      });
      state.for_each_cell(net, s, [&](int cell) {
        if (state.via_load(l, cell) + nv > state.via_cap(l, cell)) cost += 1e4;
      });
      for (const route::SinkAttach& sink : tree.sinks) {
        if (sink.seg_id == s) cost += std::abs(l - sink.pin_layer);
      }
      return log_cost('s', s, l, -1, cost);
    };
    parent.root_via_cost = [&](int s, int l) {
      return log_cost('r', s, l, -1, static_cast<double>(std::abs(l - tree.root_pin_layer)));
    };
    parent.via_cost = [&](int c, int lp, int lc) {
      double cost = std::abs(lp - lc);
      const route::Segment& seg = tree.segs[c];
      const int cell = g.cell_id(seg.a.x, seg.a.y);
      for (int l = std::min(lp, lc) + 1; l < std::max(lp, lc); ++l) {
        if (state.via_load(l, cell) + 1 > state.via_cap(l, cell)) cost += 1e4;
      }
      penalized_vias += cost >= 1e4 ? 1 : 0;
      return log_cost('v', c, lp, lc, cost);
    };
    const std::vector<int> expected = parent_solve_net_dp(tree, allowed, parent);
    const std::vector<Priced> expected_priced = std::move(priced);
    priced.clear();

    headroom.begin(net);
    const std::vector<int>& got = dp.solve(
        tree, allowed, [&](int s, int l) { return log_cost('s', s, l, -1, headroom.seg(s, l)); },
        [&](int s, int l) { return log_cost('r', s, l, -1, headroom.root_via(l)); },
        [&](int c, int lp, int lc) { return log_cost('v', c, lp, lc, headroom.via(c, lp, lc)); });
    ASSERT_EQ(got, expected) << "net " << net;
    ASSERT_EQ(priced, expected_priced) << "net " << net;
    priced.clear();
    state.set_layers(net, layers);
    ++compared;
  }
  EXPECT_GT(compared, 200);
  EXPECT_GT(penalized_vias, 0);  // full via sites were priced
}

}  // namespace
}  // namespace cpla::assign
