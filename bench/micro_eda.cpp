// Component micro-benchmarks (google-benchmark): the EDA substrates —
// global routing, segment-tree extraction, Elmore timing, partitioning,
// one full partition SDP solve, and the flow's two largest per-round
// layers outside the solver: one victim-displacement pass and one
// incremental STA update under derived budgets.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/micro_main.hpp"

#include "src/core/critical.hpp"
#include "src/core/displace.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sdp_engine.hpp"
#include "src/gen/synth.hpp"
#include "src/obs/metrics.hpp"
#include "src/route/router.hpp"
#include "src/route/seg_tree.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/timing/elmore.hpp"

namespace {

using namespace cpla;

gen::SynthSpec small_spec() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 400;
  spec.num_layers = 6;
  spec.seed = 77;
  return spec;
}

// A congested suite design, so the timing covers negotiated rip-up and
// maze rerouting, not pattern routing alone (small_spec() never overflows).
void BM_GlobalRoute(benchmark::State& state) {
  const grid::Design d = gen::generate(gen::suite_spec("newblue1"));
  obs::Counter& reroutes = obs::metrics().counter("route.ripup.reroutes");
  const std::int64_t before = reroutes.value();
  for (auto _ : state) {
    auto r = route::route_all(d);
    benchmark::DoNotOptimize(r);
  }
  state.counters["reroutes"] = static_cast<double>(reroutes.value() - before) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(BM_GlobalRoute)->Unit(benchmark::kMillisecond);

void BM_ExtractTrees(benchmark::State& state) {
  const grid::Design d = gen::generate(small_spec());
  const route::RoutingResult routed = route::route_all(d);
  for (auto _ : state) {
    for (std::size_t n = 0; n < d.nets.size(); ++n) {
      route::NetRoute copy = routed.routes[n];
      auto tree = route::extract_tree(d.grid, d.nets[n], &copy);
      benchmark::DoNotOptimize(tree);
    }
  }
}
BENCHMARK(BM_ExtractTrees)->Unit(benchmark::kMillisecond);

void BM_ElmoreWholeDesign(benchmark::State& state) {
  core::Prepared prep = core::prepare(gen::generate(small_spec()));
  for (auto _ : state) {
    double sum = 0.0;
    for (int n = 0; n < prep.state->num_nets(); ++n) {
      if (prep.state->tree(n).segs.empty()) continue;
      sum += timing::critical_delay(prep.state->tree(n), prep.state->layers(n), *prep.rc);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ElmoreWholeDesign)->Unit(benchmark::kMillisecond);

void BM_PartitionSdpSolve(benchmark::State& state) {
  core::Prepared prep = core::prepare(gen::generate(small_spec()));
  const core::CriticalSet cs = core::select_critical(*prep.state, *prep.rc, 0.01);
  const core::RoundTiming timings = core::freeze_timing(*prep.state, *prep.rc, cs.nets, {});
  std::vector<core::SegRef> refs;
  for (int net : cs.nets) {
    for (const auto& seg : prep.state->tree(net).segs) {
      refs.push_back(core::SegRef{net, seg.id,
                                  {(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2}});
    }
  }
  const auto parts = core::partition(24, 24, refs, {});
  // Pick the largest partition as a representative solve.
  std::size_t best = 0;
  for (std::size_t i = 0; i < parts.leaves.size(); ++i) {
    if (parts.leaves[i].segments.size() > parts.leaves[best].segments.size()) best = i;
  }
  const core::PartitionProblem problem =
      core::build_partition_problem(*prep.state, *prep.rc, timings, parts.leaves[best], {});
  state.counters["segments"] = static_cast<double>(problem.vars.size());
  for (auto _ : state) {
    auto r = core::solve_partition_sdp(problem, *prep.state);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PartitionSdpSolve)->Unit(benchmark::kMillisecond);

// One displacement pass (core::make_headroom) from a fixed congested
// state: the suite's smallest design at the flow's 3% release ratio. Each
// iteration starts from a copy of the same state; the copy is untimed.
void BM_MakeHeadroom(benchmark::State& state) {
  core::Prepared prep = core::prepare(gen::generate(gen::suite_spec("newblue1")));
  const core::CriticalSet cs = core::select_critical(*prep.state, *prep.rc, 0.03);
  const core::RoundTiming timings = core::freeze_timing(*prep.state, *prep.rc, cs.nets, {});
  const core::VictimIndex victims(*prep.state);
  long moved = 0;
  for (auto _ : state) {
    state.PauseTiming();
    assign::AssignState copy = *prep.state;
    state.ResumeTiming();
    moved += core::make_headroom(&copy, cs, timings, victims);
    benchmark::DoNotOptimize(copy);
  }
  state.counters["moved"] =
      static_cast<double>(moved) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MakeHeadroom)->Unit(benchmark::kMillisecond);

// One incremental STA update after a one-net edit, at three corners that
// all derive their budget from the worst endpoint arrival (the flow's
// live-STA set-up). Each iteration moves one segment of the worst net up
// or back down a layer, so every update re-times the net and moves the
// budget.
void BM_StaUpdateDerivedBudget(benchmark::State& state) {
  core::Prepared prep = core::prepare(gen::generate(gen::suite_spec("newblue1")));
  const sta::CornerSet corners(*prep.rc, {{"typ", 1.0, 1.0, 1.0, -1.0},
                                          {"slow", 1.15, 1.10, 1.10, -1.0},
                                          {"fast", 0.90, 0.92, 0.90, -1.0}});
  sta::TimingGraph graph;
  graph.build(*prep.state, corners);
  const int net = core::select_critical(*prep.state, *prep.rc, 0.01).nets.front();
  const std::vector<int> base = prep.state->layers(net);
  const std::vector<int>& options =
      prep.state->allowed_layers(prep.state->tree(net).segs.front().horizontal);
  std::vector<int> edited = base;
  edited.front() = base.front() == options.back() ? options.front() : options.back();
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    prep.state->set_layers(net, flip ? edited : base);
    graph.update(*prep.state);
    benchmark::DoNotOptimize(graph.worst_slack());
  }
  state.counters["dirty_nodes"] = static_cast<double>(graph.stats().dirty_nodes);
}
BENCHMARK(BM_StaUpdateDerivedBudget)->Unit(benchmark::kMicrosecond);

}  // namespace

CPLA_MICRO_BENCH_MAIN("micro_eda")
