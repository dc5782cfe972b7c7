#include "src/core/tila.hpp"

#include <gtest/gtest.h>

#include "src/assign/state.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/route/seg_tree.hpp"
#include "src/timing/elmore.hpp"
#include "src/timing/rc_table.hpp"

namespace cpla::core {
namespace {

Prepared bench(std::uint64_t seed) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = seed;
  return prepare(gen::generate(spec));
}

/// Congested instance: two tracks per layer leave wire overflow at entry,
/// so the capacity multipliers are active from the first update.
Prepared congested_bench(std::uint64_t seed) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 420;
  spec.num_layers = 6;
  spec.tracks_per_layer = 2;
  spec.seed = seed;
  return prepare(gen::generate(spec));
}

/// TILA's own entry/best-iterate objective: the summed worst-sink delay of
/// the released nets, accumulated in critical-set order.
double sum_of_max_sink_delays(const assign::AssignState& state, const timing::RcTable& rc,
                              const CriticalSet& cs) {
  double sum = 0.0;
  for (int net : cs.nets) {
    sum += timing::compute_timing(state.tree(net), state.layers(net), rc).max_sink_delay;
  }
  return sum;
}

TEST(Tila, ImprovesCriticalTiming) {
  Prepared run = bench(101);
  const CriticalSet cs = select_critical(*run.state, *run.rc, 0.03);
  const LaMetrics before = compute_metrics(*run.state, *run.rc, cs);
  const TilaResult r = run_tila(run.state.get(), *run.rc, cs);
  const LaMetrics after = compute_metrics(*run.state, *run.rc, cs);
  EXPECT_GE(r.iterations_run, 1);
  EXPECT_LT(after.avg_tcp, before.avg_tcp);
}

// Wire capacity is hard and the best iterate is restored, so neither the
// objective nor the wire overflow may end worse than at entry — also on the
// congested instance, where the multipliers move. Via overflow is not
// asserted: via capacity is only priced, and congested seeds do add some.
TEST(Tila, HardCapacityNeverAddsWireOverflow) {
  struct Input {
    const char* name;
    Prepared run;
  };
  Input inputs[] = {{"uncongested 102", bench(102)}, {"congested 301", congested_bench(301)}};
  ASSERT_GT(inputs[1].run.state->wire_overflow(), 0)
      << "fixture no longer engages the multipliers";
  for (Input& in : inputs) {
    assign::AssignState& state = *in.run.state;
    const CriticalSet cs = select_critical(state, *in.run.rc, 0.05);
    ASSERT_FALSE(cs.nets.empty()) << in.name;
    const double entry_obj = sum_of_max_sink_delays(state, *in.run.rc, cs);
    const long entry_wire_ov = state.wire_overflow();
    const TilaResult r = run_tila(&state, *in.run.rc, cs);
    const double obj = sum_of_max_sink_delays(state, *in.run.rc, cs);
    EXPECT_LE(obj, entry_obj) << in.name;
    EXPECT_EQ(obj, r.weighted_delay) << in.name << ": restored state is not the best iterate";
    EXPECT_LE(state.wire_overflow(), entry_wire_ov) << in.name;
  }
}

// Pins TILA's Table-2 columns bit for bit on one small instance, at
// run_tila's default options: any change to the TILA loop, the Elmore model
// or the synthetic generator shows up here first.
TEST(Tila, GoldenMetrics) {
  Prepared run = bench(101);
  const CriticalSet cs = select_critical(*run.state, *run.rc, 0.03);
  run_tila(run.state.get(), *run.rc, cs);
  const LaMetrics m = compute_metrics(*run.state, *run.rc, cs);
  EXPECT_EQ(m.avg_tcp, 19154.832682290256);
  EXPECT_EQ(m.max_tcp, 30047.897473736582);
  EXPECT_EQ(m.via_overflow, 4);
  EXPECT_EQ(m.via_count, 3047);
}

TEST(Tila, Deterministic) {
  Prepared a = bench(103);
  Prepared b = bench(103);
  const CriticalSet cs = select_critical(*a.state, *a.rc, 0.03);
  run_tila(a.state.get(), *a.rc, cs);
  run_tila(b.state.get(), *b.rc, cs);
  for (int n = 0; n < a.state->num_nets(); ++n) {
    EXPECT_EQ(a.state->layers(n), b.state->layers(n)) << n;
  }
}

TEST(Tila, UntouchedNetsKeepTheirAssignment) {
  Prepared run = bench(104);
  const CriticalSet cs = select_critical(*run.state, *run.rc, 0.02);
  std::vector<std::vector<int>> before;
  for (int n = 0; n < run.state->num_nets(); ++n) before.push_back(run.state->layers(n));
  run_tila(run.state.get(), *run.rc, cs);
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!cs.released[n]) {
      EXPECT_EQ(run.state->layers(n), before[n]) << "non-released net moved";
    }
  }
}

TEST(Tila, MoreIterationsNeverWorseThanOne) {
  Prepared a = bench(105);
  Prepared b = bench(105);
  const CriticalSet cs = select_critical(*a.state, *a.rc, 0.03);
  TilaOptions one;
  one.iterations = 1;
  run_tila(a.state.get(), *a.rc, cs, one);
  TilaOptions many;
  many.iterations = 8;
  run_tila(b.state.get(), *b.rc, cs, many);
  const double avg_one = compute_metrics(*a.state, *a.rc, cs).avg_tcp;
  const double avg_many = compute_metrics(*b.state, *b.rc, cs).avg_tcp;
  EXPECT_LE(avg_many, avg_one * 1.02);  // small tolerance: LR can oscillate
}

// Regression: sub-gradient methods must keep the *best* primal iterate.
// On a congested instance the multiplier updates make the iterates
// oscillate; the convergence test then trips on a worse iterate, which must
// not be the one left in the state. Iteration 1 of the long run is
// identical to the one-iteration run (multipliers start at zero), so
// best-iterate tracking can never end worse than either run's iteration 1
// or the entry assignment.
TEST(Tila, OscillationKeepsBestIterate) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 420;
  spec.num_layers = 6;
  spec.tracks_per_layer = 2;  // congested: capacity multipliers engage
  spec.seed = 106;
  Prepared one = prepare(gen::generate(spec));
  Prepared many = prepare(gen::generate(spec));
  const CriticalSet cs = select_critical(*one.state, *one.rc, 0.10);
  const double avg_entry = compute_metrics(*one.state, *one.rc, cs).avg_tcp;
  TilaOptions aggressive;
  aggressive.lambda_step = 8.0;
  aggressive.mu_step = 4.0;
  TilaOptions first = aggressive;
  first.iterations = 1;
  run_tila(one.state.get(), *one.rc, cs, first);
  aggressive.iterations = 12;
  const TilaResult r = run_tila(many.state.get(), *many.rc, cs, aggressive);
  const double avg_one = compute_metrics(*one.state, *one.rc, cs).avg_tcp;
  const double avg_many = compute_metrics(*many.state, *many.rc, cs).avg_tcp;
  EXPECT_LE(avg_many, avg_one * (1.0 + 1e-9))
      << "oscillation kept a worse iterate (ran " << r.iterations_run << " iterations)";
  EXPECT_LE(avg_many, avg_entry * (1.0 + 1e-9)) << "worse than the entry assignment";
}

// Regression: two segments of one net priced in the same pass each discount
// only their own *pre-pass* usage, so they can jointly overfill an edge with
// one free track. The net is a hand-built out-and-back pair of horizontal
// segments covering the same edges; layer 2 is faster but has capacity 1.
TEST(Tila, IntraPassMovesCannotJointlyOverfillAnEdge) {
  grid::GridGraph g(16, 16, grid::make_layer_stack(4), grid::default_geom());
  for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 4);
  g.fill_layer_capacity(2, 1);
  grid::Design design("overfill", std::move(g));

  route::SegTree tree;
  tree.net_id = 0;
  tree.root = {1, 1};
  tree.root_pin_layer = 0;
  route::Segment s0;
  s0.id = 0;
  s0.a = {1, 1};
  s0.b = {14, 1};
  s0.horizontal = true;
  s0.parent = -1;
  s0.children = {1};
  route::Segment s1;
  s1.id = 1;
  s1.a = {14, 1};
  s1.b = {1, 1};
  s1.horizontal = true;
  s1.parent = 0;
  tree.segs = {s0, s1};
  route::SinkAttach sink;
  sink.pin_index = 1;
  sink.seg_id = 1;
  sink.pin_layer = 0;
  tree.sinks = {sink};

  assign::AssignState state(&design, {tree});
  state.set_layers(0, {0, 0});
  ASSERT_EQ(state.wire_overflow(), 0);

  const timing::RcTable rc(design.grid);
  CriticalSet cs;
  cs.nets = {0};
  cs.released.assign(1, 1);
  TilaOptions one;
  one.iterations = 1;
  run_tila(&state, rc, cs, one);
  EXPECT_EQ(state.wire_overflow(), 0)
      << "one pass jointly overfilled a capacity-1 edge";
}

TEST(Flow, CplaDeterministic) {
  Prepared a = bench(106);
  Prepared b = bench(106);
  const CriticalSet cs = select_critical(*a.state, *a.rc, 0.03);
  CplaOptions opt;
  opt.max_rounds = 2;
  run_cpla(a.state.get(), *a.rc, cs, opt);
  run_cpla(b.state.get(), *b.rc, cs, opt);
  for (int n = 0; n < a.state->num_nets(); ++n) {
    EXPECT_EQ(a.state->layers(n), b.state->layers(n)) << n;
  }
}

TEST(Flow, CplaUntouchedNetsKeepTheirAssignment) {
  Prepared run = bench(107);
  const CriticalSet cs = select_critical(*run.state, *run.rc, 0.02);
  std::vector<std::vector<int>> before;
  for (int n = 0; n < run.state->num_nets(); ++n) before.push_back(run.state->layers(n));
  CplaOptions opt;
  opt.max_rounds = 2;
  run_cpla(run.state.get(), *run.rc, cs, opt);
  for (int n = 0; n < run.state->num_nets(); ++n) {
    if (!cs.released[n]) {
      EXPECT_EQ(run.state->layers(n), before[n]) << "non-released net moved";
    }
  }
}

}  // namespace
}  // namespace cpla::core
