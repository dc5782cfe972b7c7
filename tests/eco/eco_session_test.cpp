// Unit tests for the ECO subsystem building blocks — deltas, reroute
// helpers, the content-addressed solution cache, the assign-state ECO
// mutators — plus EcoSession end-to-end behavior
// (warm-cache hits, the cache key deciding replay vs solve, stats).
// Carries the `eco` and `tsan` labels: the cache is hammered from four
// std::threads below.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/eco/delta.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "src/eco/reroute.hpp"
#include "src/eco/solution_cache.hpp"
#include "src/obs/metrics.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

// --- Reroute helpers --------------------------------------------------

TEST(RerouteTest, TwoPinTreeShapes) {
  // Straight span: one segment, sink on it.
  const route::SegTree straight = make_two_pin_tree({1, 4}, {5, 4});
  ASSERT_EQ(straight.segs.size(), 1u);
  EXPECT_TRUE(straight.segs[0].horizontal);
  ASSERT_EQ(straight.sinks.size(), 1u);
  EXPECT_EQ(straight.sinks[0].seg_id, 0);

  // L: two segments, child hangs off the root, sink at the far end.
  const route::SegTree ell = make_two_pin_tree({1, 1}, {4, 6});
  ASSERT_EQ(ell.segs.size(), 2u);
  EXPECT_EQ(ell.segs[0].parent, -1);
  EXPECT_EQ(ell.segs[1].parent, 0);
  EXPECT_EQ(ell.sinks[0].seg_id, 1);

  // Degenerate: same cell, empty tree.
  EXPECT_TRUE(make_two_pin_tree({3, 3}, {3, 3}).segs.empty());
}

TEST(RerouteTest, AlternateRouteFlipsTheCorner) {
  const route::SegTree ell = make_two_pin_tree({1, 1}, {4, 6});
  Result<route::SegTree> flipped = alternate_route(ell);
  ASSERT_TRUE(flipped.is_ok());
  ASSERT_EQ(flipped.value().segs.size(), 2u);
  // Orientation of the first segment flips; pins stay fixed.
  EXPECT_NE(flipped.value().segs[0].horizontal, ell.segs[0].horizontal);

  // Flipping twice restores the original shape.
  Result<route::SegTree> back = alternate_route(flipped.value());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().segs[0].horizontal, ell.segs[0].horizontal);
  EXPECT_EQ(back.value().segs[0].a.x, ell.segs[0].a.x);
  EXPECT_EQ(back.value().segs[0].a.y, ell.segs[0].a.y);

  // A straight tree has no alternate corner.
  EXPECT_FALSE(alternate_route(make_two_pin_tree({1, 4}, {5, 4})).is_ok());
}

// --- AssignState ECO mutators ----------------------------------------

TEST(StateMutatorTest, ReplaceAddRemoveKeepIdsStable) {
  core::Prepared bench = make_bench(11, 12, 40);
  assign::AssignState& state = *bench.state;
  const int n = state.num_nets();

  const int added = state.add_net(make_two_pin_tree({1, 1}, {5, 5}));
  EXPECT_EQ(added, n);
  EXPECT_EQ(state.num_nets(), n + 1);
  EXPECT_TRUE(state.assigned(added));
  EXPECT_EQ(state.layers(added).size(), state.tree(added).segs.size());

  // Replacing the tree re-derives the default assignment for the new shape.
  state.replace_tree(added, make_two_pin_tree({5, 1}, {1, 5}));
  EXPECT_EQ(state.layers(added).size(), state.tree(added).segs.size());

  const long wire_before = state.wire_overflow();
  state.remove_net(added);
  EXPECT_EQ(state.num_nets(), n + 1);  // id survives as an empty slot
  EXPECT_TRUE(state.tree(added).segs.empty());
  EXPECT_LE(state.wire_overflow(), wire_before);
}

// --- Delta application ------------------------------------------------

TEST(DeltaTest, CapacityAdjustedWritesThroughTheDesign) {
  core::Prepared bench = make_bench(12, 12, 40);
  core::CriticalSet critical = core::select_critical(*bench.state, *bench.rc, 0.05);
  const auto& g = bench.design->grid;

  int layer = 0;
  while (!g.is_horizontal(layer)) ++layer;
  const int edge = g.h_edge_id(2, 3);
  const int before = g.edge_capacity(layer, edge);

  Result<int> r = apply_delta(Delta::capacity_adjusted(layer, 2, 3, before + 2),
                              bench.design.get(), bench.state.get(), &critical);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), -1);
  EXPECT_EQ(g.edge_capacity(layer, edge), before + 2);
  EXPECT_EQ(bench.state->wire_cap(layer, edge), before + 2);
}

/// The horizontal-layer edge carrying the most wires in `state`, as
/// {layer, x, y, edge id}.
struct UsedEdge {
  int layer = -1, x = 0, y = 0, edge = -1;
};

UsedEdge busiest_h_edge(const assign::AssignState& state) {
  const auto& g = state.design().grid;
  UsedEdge best;
  int best_usage = 0;
  for (int l = 0; l < g.num_layers(); ++l) {
    if (!g.is_horizontal(l)) continue;
    for (int y = 0; y < g.ysize(); ++y) {
      for (int x = 0; x + 1 < g.xsize(); ++x) {
        const int e = g.h_edge_id(x, y);
        if (state.wire_usage(l, e) > best_usage) {
          best_usage = state.wire_usage(l, e);
          best = {l, x, y, e};
        }
      }
    }
  }
  return best;
}

TEST(DeltaTest, CapacityCutRaisesWireOverflowByTheDeficit) {
  core::Prepared bench = make_bench(12, 12, 40);
  core::CriticalSet critical = core::select_critical(*bench.state, *bench.rc, 0.05);
  assign::AssignState& state = *bench.state;
  const UsedEdge used = busiest_h_edge(state);
  ASSERT_GE(used.edge, 0);
  const int usage = state.wire_usage(used.layer, used.edge);
  const int cap = state.wire_cap(used.layer, used.edge);
  const long before = state.wire_overflow();
  const long deficit = usage - std::max(0, usage - cap);
  ASSERT_GT(deficit, 0);

  // Closing the edge turns every wire on it into overflow.
  ASSERT_TRUE(apply_delta(Delta::capacity_adjusted(used.layer, used.x, used.y, 0),
                          bench.design.get(), &state, &critical)
                  .is_ok());
  EXPECT_EQ(state.wire_overflow(), before + deficit);

  // A usage update after the write resyncs the running total to the same
  // value.
  const int net = critical.nets.front();
  state.set_layers(net, std::vector<int>(state.layers(net)));
  EXPECT_EQ(state.wire_overflow(), before + deficit);
}

TEST(DeltaTest, CriticalityToggleMaintainsTheReleasedSet) {
  core::Prepared bench = make_bench(13, 12, 40);
  core::CriticalSet critical = core::select_critical(*bench.state, *bench.rc, 0.05);
  ASSERT_FALSE(critical.nets.empty());
  const int net = critical.nets.front();

  ASSERT_TRUE(apply_delta(Delta::criticality_changed(net, false), bench.design.get(),
                          bench.state.get(), &critical)
                  .is_ok());
  EXPECT_FALSE(critical.released[net]);
  EXPECT_EQ(std::count(critical.nets.begin(), critical.nets.end(), net), 0);

  ASSERT_TRUE(apply_delta(Delta::criticality_changed(net, true), bench.design.get(),
                          bench.state.get(), &critical)
                  .is_ok());
  EXPECT_TRUE(critical.released[net]);
  EXPECT_EQ(std::count(critical.nets.begin(), critical.nets.end(), net), 1);
}

TEST(DeltaTest, InvalidDeltasRejectWithoutMutation) {
  core::Prepared bench = make_bench(14, 12, 40);
  core::CriticalSet critical = core::select_critical(*bench.state, *bench.rc, 0.05);
  const auto& g = bench.design->grid;

  // Out-of-range net.
  EXPECT_FALSE(apply_delta(Delta::net_removed(bench.state->num_nets() + 7), bench.design.get(),
                           bench.state.get(), &critical)
                   .is_ok());
  // Out-of-grid capacity target.
  EXPECT_FALSE(apply_delta(Delta::capacity_adjusted(0, g.xsize() + 1, 0, 4), bench.design.get(),
                           bench.state.get(), &critical)
                   .is_ok());
  // Out-of-grid tree.
  route::SegTree bad = make_two_pin_tree({0, 0}, {g.xsize() + 3, 0});
  EXPECT_FALSE(
      apply_delta(Delta::net_added(bad), bench.design.get(), bench.state.get(), &critical)
          .is_ok());
  // Trees whose indices point outside themselves or the layer stack (a
  // journal record or checkpoint can carry any bytes).
  const route::SegTree good = make_two_pin_tree({1, 1}, {4, 3});
  ASSERT_GE(good.segs.size(), 2u);
  std::vector<route::SegTree> broken(5, good);
  broken[0].segs[0].parent = -5;
  broken[1].segs[0].children.push_back(7);
  broken[2].segs[0].children.clear();
  broken[3].sinks[0].seg_id = static_cast<int>(good.segs.size());
  broken[4].root_pin_layer = g.num_layers();
  for (const route::SegTree& tree : broken) {
    const Result<int> applied =
        apply_delta(Delta::net_added(tree), bench.design.get(), bench.state.get(), &critical);
    EXPECT_EQ(applied.status().code(), StatusCode::kBadInput);
  }
  EXPECT_TRUE(
      apply_delta(Delta::net_added(good), bench.design.get(), bench.state.get(), &critical)
          .is_ok());
}

// --- PartitionSolutionCache -------------------------------------------

CacheKey key_of(std::uint64_t a, std::uint64_t b) {
  CacheKey k;
  k.push(a);
  k.push(b);
  k.finalize();
  return k;
}

core::GuardedSolve solve_of(int tag) {
  core::GuardedSolve s;
  s.result.pick = {tag};
  s.tier = core::GuardTier::kPrimary;
  return s;
}

TEST(SolutionCacheTest, LruEvictsTheColdestEntry) {
  PartitionSolutionCache cache(2);
  cache.insert(key_of(1, 1), solve_of(1));
  cache.insert(key_of(2, 2), solve_of(2));

  core::GuardedSolve out;
  ASSERT_TRUE(cache.lookup(key_of(1, 1), &out));  // refresh 1 -> 2 is coldest
  cache.insert(key_of(3, 3), solve_of(3));        // evicts 2

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(key_of(2, 2), &out));
  ASSERT_TRUE(cache.lookup(key_of(1, 1), &out));
  EXPECT_EQ(out.result.pick, std::vector<int>{1});
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(SolutionCacheTest, HashCollisionIsAMissNeverAWrongAnswer) {
  PartitionSolutionCache cache(8);
  CacheKey a = key_of(10, 20);
  CacheKey b = key_of(30, 40);
  b.hash = a.hash;  // force the two keys into the same bucket

  cache.insert(a, solve_of(1));
  core::GuardedSolve out;
  EXPECT_FALSE(cache.lookup(b, &out));  // full word compare rejects it
  ASSERT_TRUE(cache.lookup(a, &out));
  EXPECT_EQ(out.result.pick, std::vector<int>{1});
}

TEST(SolutionCacheTest, InsertRefreshesAnExistingKey) {
  PartitionSolutionCache cache(4);
  cache.insert(key_of(1, 1), solve_of(1));
  cache.insert(key_of(1, 1), solve_of(9));
  EXPECT_EQ(cache.size(), 1u);
  core::GuardedSolve out;
  ASSERT_TRUE(cache.lookup(key_of(1, 1), &out));
  EXPECT_EQ(out.result.pick, std::vector<int>{9});
}

TEST(SolutionCacheTest, ConcurrentMixedAccessIsRaceFree) {
  // Shape mirrors the flow's parallel solve phase: many threads looking up
  // and inserting overlapping keys. Run under the tsan preset this is the
  // race-detector's stand over the cache's one-mutex design.
  PartitionSolutionCache cache(64);
  const int kIters = 2000;
  // std::threads, not an OpenMP team: ThreadSanitizer models their joins,
  // but not an uninstrumented libgomp's barriers.
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = t; i < kIters; i += kThreads) {
        const CacheKey key = key_of(static_cast<std::uint64_t>(i % 97), 5);
        core::GuardedSolve out;
        if (!cache.lookup(key, &out)) cache.insert(key, solve_of(i % 97));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.hits() + cache.misses(), 0);
}

// --- EcoSession end-to-end --------------------------------------------

TEST(EcoSessionTest, ApplyRecordsDeltasAndInvalidatesTiming) {
  core::Prepared bench = make_bench(16);
  EcoOptions opt;
  opt.critical_ratio = 0.03;
  EcoSession session(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_FALSE(session.critical().nets.empty());

  const std::vector<Delta> script =
      make_edit_script(*bench.state, session.critical(), {.count = 10, .seed = 3});
  ASSERT_EQ(script.size(), 10u);
  for (const Delta& d : script) ASSERT_TRUE(session.apply(d).is_ok()) << to_string(d.kind);
  EXPECT_EQ(session.stats().deltas_applied, 10);
}

TEST(EcoSessionTest, SecondResolveIsServedFromTheCache) {
  core::Prepared bench = make_bench(17);
  EcoOptions opt;
  opt.critical_ratio = 0.03;
  EcoSession session(bench.design.get(), bench.state.get(), bench.rc.get(), opt);

  core::OptimizeResult first = session.resolve();
  EXPECT_TRUE(first.status.is_ok());
  const EcoStats after_first = session.stats();
  EXPECT_GT(after_first.cache_misses, 0);  // cold cache: everything misses
  EXPECT_EQ(after_first.fallbacks, 0);

  // No deltas in between: the converged final round of the first resolve
  // re-appears as the first round of the second, so keys match and replay.
  core::OptimizeResult second = session.resolve();
  EXPECT_TRUE(second.status.is_ok());
  const EcoStats after_second = session.stats();
  EXPECT_GT(after_second.cache_hits, 0);
  EXPECT_EQ(after_second.resolves, 2);
  EXPECT_EQ(after_second.full_resolves, 0);
}

/// Partition solver calls made so far in this process (replays excluded:
/// a cache hit never reaches core::guarded_solve).
long solver_calls() { return obs::metrics().counter("core.guard.solves").value(); }

/// A session resolved twice with no edits: the converged final round of
/// the first resolve is what the second starts from.
struct ConvergedSession {
  core::Prepared bench;
  EcoSession session;

  explicit ConvergedSession(std::uint64_t seed)
      : bench(make_bench(seed)),
        session(bench.design.get(), bench.state.get(), bench.rc.get(), options()) {
    session.resolve();
    session.resolve();
  }
  static EcoOptions options() {
    EcoOptions opt;
    opt.critical_ratio = 0.03;
    return opt;
  }
};

TEST(EcoSessionTest, ResolveWithoutEditsRunsNoSolver) {
  ConvergedSession warm(18);
  const EcoStats before = warm.session.stats();
  const long calls = solver_calls();

  ASSERT_TRUE(warm.session.resolve().status.is_ok());
  const EcoStats after = warm.session.stats();
  EXPECT_EQ(solver_calls(), calls);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  // Every partition still consulted the cache, and every one hit.
  EXPECT_GT(after.clean_partitions, before.clean_partitions);
  EXPECT_EQ(after.cache_hits - before.cache_hits,
            after.clean_partitions - before.clean_partitions);
}

/// Horizontal and vertical edges carry separate id spaces.
long long directed_edge(bool horizontal, int edge) {
  return (static_cast<long long>(edge) << 1) | (horizontal ? 1 : 0);
}

TEST(EcoSessionTest, EditInsideARegionButOutsideItsInputsReplays) {
  ConvergedSession warm(18);
  const assign::AssignState& state = warm.session.state();
  const auto& g = state.design().grid;
  const core::CriticalSet& critical = warm.session.critical();

  // Every edge any net's wire crosses: a capacity edit there could reach a
  // partition key, victim displacement or the overflow totals.
  std::vector<char> used(static_cast<std::size_t>(2 * (g.num_h_edges() + g.num_v_edges()) + 2),
                         0);
  for (int net = 0; net < state.num_nets(); ++net) {
    for (const route::Segment& seg : state.tree(net).segs) {
      state.for_each_edge(net, seg.id, [&](int e) {
        used[static_cast<std::size_t>(directed_edge(seg.horizontal, e))] = 1;
      });
    }
  }

  // An edge touching the midpoint cell of a released segment — so the
  // edit's cells meet that segment's partition region — that no wire
  // crosses on any layer.
  int layer = -1, x = -1, y = -1;
  for (int net : critical.nets) {
    for (const route::Segment& seg : state.tree(net).segs) {
      const int mx = (seg.a.x + seg.b.x) / 2, my = (seg.a.y + seg.b.y) / 2;
      for (const bool horizontal : {true, false}) {
        for (const int back : {0, 1}) {
          const int ex = horizontal ? mx - back : mx, ey = horizontal ? my : my - back;
          const bool in_grid = ex >= 0 && ey >= 0 &&
                               (horizontal ? ex + 1 < g.xsize() : ey + 1 < g.ysize());
          if (layer >= 0 || !in_grid) continue;
          const int e = horizontal ? g.h_edge_id(ex, ey) : g.v_edge_id(ex, ey);
          if (used[static_cast<std::size_t>(directed_edge(horizontal, e))]) continue;
          for (int l = 0; l < g.num_layers() && layer < 0; ++l) {
            if (g.is_horizontal(l) == horizontal) layer = l;
          }
          x = ex;
          y = ey;
        }
      }
    }
  }
  ASSERT_GE(layer, 0) << "no unused edge inside a released segment's region";
  const int edge = g.is_horizontal(layer) ? g.h_edge_id(x, y) : g.v_edge_id(x, y);
  const int cap = g.edge_capacity(layer, edge);

  const EcoStats before = warm.session.stats();
  const long calls = solver_calls();
  ASSERT_TRUE(warm.session.apply(Delta::capacity_adjusted(layer, x, y, cap + 2)).is_ok());
  ASSERT_TRUE(warm.session.resolve().status.is_ok());
  const EcoStats after = warm.session.stats();
  EXPECT_EQ(solver_calls(), calls) << "an edit no partition reads forced a re-solve";
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_GT(after.cache_hits, before.cache_hits);
}

TEST(EcoSessionTest, CapacityEditOnAVarEdgeMisses) {
  ConvergedSession warm(18);
  const assign::AssignState& state = warm.session.state();
  const auto& g = state.design().grid;

  // The first edge of a released net's first horizontal segment, on that
  // segment's current layer: a var of its partition reads this capacity.
  int layer = -1, x = -1, y = -1;
  for (int net : warm.session.critical().nets) {
    const route::SegTree& tree = state.tree(net);
    for (const route::Segment& seg : tree.segs) {
      if (!seg.horizontal || seg.a.x == seg.b.x) continue;
      layer = state.layers(net)[static_cast<std::size_t>(seg.id)];
      x = std::min(seg.a.x, seg.b.x);
      y = seg.a.y;
      break;
    }
    if (layer >= 0) break;
  }
  ASSERT_GE(layer, 0);
  const int cap = g.edge_capacity(layer, g.h_edge_id(x, y));

  const EcoStats before = warm.session.stats();
  const long calls = solver_calls();
  ASSERT_TRUE(warm.session.apply(Delta::capacity_adjusted(layer, x, y, cap + 2)).is_ok());
  ASSERT_TRUE(warm.session.resolve().status.is_ok());
  const EcoStats after = warm.session.stats();
  EXPECT_GT(after.cache_misses, before.cache_misses);
  EXPECT_GT(solver_calls(), calls);
  EXPECT_EQ(after.fallbacks, 0);
}

}  // namespace
}  // namespace cpla::eco
