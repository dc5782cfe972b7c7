// Component micro-benchmarks (google-benchmark): the EDA substrates —
// global routing, segment-tree extraction, Elmore timing, partitioning,
// and one full partition SDP solve.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/micro_main.hpp"

#include "src/core/critical.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sdp_engine.hpp"
#include "src/gen/synth.hpp"
#include "src/obs/metrics.hpp"
#include "src/route/router.hpp"
#include "src/route/seg_tree.hpp"
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

}  // namespace

CPLA_MICRO_BENCH_MAIN("micro_eda")
