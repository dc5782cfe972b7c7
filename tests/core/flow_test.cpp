#include "src/core/flow.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/pipeline.hpp"
#include "src/core/tila.hpp"
#include "src/gen/synth.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::core {
namespace {

Prepared small_bench(std::uint64_t seed = 61) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 300;
  spec.num_layers = 6;
  spec.seed = seed;
  return prepare(gen::generate(spec));
}

TEST(Flow, CplaImprovesCriticalTiming) {
  Prepared bench = small_bench();
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  CplaOptions opt;
  const CplaResult result = run_cpla(bench.state.get(), *bench.rc, critical, opt);

  EXPECT_GT(result.partitions_solved, 0);
  EXPECT_LE(result.metrics.avg_tcp, before.avg_tcp * 1.0001);
  EXPECT_LE(result.metrics.max_tcp, before.max_tcp * 1.0001);
  EXPECT_GT(result.metrics.avg_tcp, 0.0);
  // Wire capacity must not regress into new overflow.
  EXPECT_LE(result.metrics.wire_overflow, before.wire_overflow);
}

TEST(Flow, TilaImprovesWeightedDelay) {
  Prepared bench = small_bench(62);
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  const TilaResult result = run_tila(bench.state.get(), *bench.rc, critical);
  EXPECT_GE(result.iterations_run, 1);

  const LaMetrics after = compute_metrics(*bench.state, *bench.rc, critical);
  EXPECT_LE(after.avg_tcp, before.avg_tcp * 1.02);  // weighted-sum objective, mild guarantee
  EXPECT_GT(after.avg_tcp, 0.0);
}

TEST(Flow, CplaBeatsOrMatchesTilaOnMaxTiming) {
  // The paper's headline: on the same released set, the SDP flow controls
  // Max(Tcp) at least as well as TILA. Run both from identical states.
  Prepared for_tila = small_bench(63);
  Prepared for_cpla = small_bench(63);
  const CriticalSet critical = select_critical(*for_tila.state, *for_tila.rc, 0.03);

  run_tila(for_tila.state.get(), *for_tila.rc, critical);
  const LaMetrics tila = compute_metrics(*for_tila.state, *for_tila.rc, critical);

  run_cpla(for_cpla.state.get(), *for_cpla.rc, critical);
  const LaMetrics cpla = compute_metrics(*for_cpla.state, *for_cpla.rc, critical);

  EXPECT_LE(cpla.max_tcp, tila.max_tcp * 1.05);
  EXPECT_LE(cpla.avg_tcp, tila.avg_tcp * 1.05);
}

TEST(Flow, IlpEngineRunsOnTinyBenchmark) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 16;
  spec.num_nets = 120;
  spec.num_layers = 4;
  spec.seed = 64;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  CplaOptions opt;
  opt.engine = Engine::kIlp;
  opt.partition.max_segments = 6;
  opt.max_rounds = 1;
  opt.ilp.time_limit_s = 10.0;
  const CplaResult result = run_cpla(bench.state.get(), *bench.rc, critical, opt);
  EXPECT_LE(result.metrics.avg_tcp, before.avg_tcp * 1.0001);
}

TEST(Flow, MetricsOverEmptyCriticalSet) {
  Prepared bench = small_bench(65);
  CriticalSet empty;
  empty.released.assign(bench.state->num_nets(), 0);
  const LaMetrics m = compute_metrics(*bench.state, *bench.rc, empty);
  EXPECT_EQ(m.avg_tcp, 0.0);
  EXPECT_EQ(m.max_tcp, 0.0);
  const CplaResult r = run_cpla(bench.state.get(), *bench.rc, empty, {});
  EXPECT_EQ(r.partitions_solved, 0);
}

TEST(Flow, CriticalRatioScalesReleasedCount) {
  Prepared bench = small_bench(66);
  const CriticalSet small = select_critical(*bench.state, *bench.rc, 0.01);
  const CriticalSet large = select_critical(*bench.state, *bench.rc, 0.05);
  EXPECT_LT(small.nets.size(), large.nets.size());
  EXPECT_EQ(small.nets.size(), 3u);   // ceil(0.01 * 300)
  EXPECT_EQ(large.nets.size(), 15u);  // ceil(0.05 * 300)
}

TEST(Flow, SerialFlowGatesTheSolversInnerParallelism) {
  CplaOptions opt;
  opt.sdp.tol = 1e-7;
  EXPECT_TRUE(effective_sdp_options(opt).parallel);
  EXPECT_EQ(effective_sdp_options(opt).tol, 1e-7);  // the rest passes through

  opt.parallel = false;
  EXPECT_FALSE(effective_sdp_options(opt).parallel);

  opt.parallel = true;
  opt.sdp.parallel = false;
  EXPECT_FALSE(effective_sdp_options(opt).parallel);
}

#ifdef _OPENMP
// Stock options (no commit_batch set) give the same assignment at one and
// four OpenMP threads: the batch size comes from the config alone. On this
// dense instance a batch of four partitions changes the result, so a
// thread-count-derived batch cannot pass.
TEST(Flow, StockOptionsGiveTheSameLayersAtAnyThreadCount) {
  auto layer_hash = [](int threads) {
    const eco::ScopedOmpThreads scoped(threads);
    Prepared bench = eco::make_bench(401, 12, 150);
    CplaOptions opt;
    opt.critical_ratio = 0.03;
    EXPECT_TRUE(optimize(bench.state.get(), *bench.rc, opt).status.is_ok());
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int n = 0; n < bench.state->num_nets(); ++n) {
      for (int l : bench.state->layers(n)) {
        hash = (hash ^ static_cast<std::uint64_t>(l + 1)) * 0x100000001b3ull;
      }
      hash = (hash ^ 0xffu) * 0x100000001b3ull;  // net separator
    }
    return hash;
  };
  EXPECT_EQ(layer_hash(1), layer_hash(4));
}
#endif

// Pins the paper flow as the flow_lagr_sta benchmark runs it (Engine::kLagr,
// a live 3-corner timing graph, ratio 0.03, one partition per commit) bit
// for bit on one suite instance: the Table-2 columns and an FNV-1a hash of
// every net's layers, non-released nets included, so victim displacement,
// the net DP and the partition builder all show up here.
TEST(Flow, LagrStaGoldenMetrics) {
  Prepared bench = prepare(gen::generate(gen::suite_spec("newblue1")));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, 0.03);
  std::vector<std::vector<int>> entry;
  for (int n = 0; n < bench.state->num_nets(); ++n) entry.push_back(bench.state->layers(n));
  const sta::CornerSet corners(*bench.rc, {{"typ", 1.0, 1.0, 1.0, -1.0},
                                           {"slow", 1.15, 1.10, 1.10, -1.0},
                                           {"fast", 0.90, 0.92, 0.90, -1.0}});
  sta::TimingGraph graph;
  graph.build(*bench.state, corners);

  CplaOptions opt;
  opt.critical_ratio = 0.03;
  opt.engine = Engine::kLagr;
  opt.sta_graph = &graph;
  opt.commit_batch = 1;  // results must not depend on the OpenMP thread count
  const OptimizeResult res = optimize(bench.state.get(), *bench.rc, critical, opt);
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();

  const LaMetrics m = compute_metrics(*bench.state, *bench.rc, critical);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  int moved_outside = 0;  // nets outside the entry critical set that moved
  for (int n = 0; n < bench.state->num_nets(); ++n) {
    for (int l : bench.state->layers(n)) {
      hash = (hash ^ static_cast<std::uint64_t>(l + 1)) * 0x100000001b3ull;
    }
    hash = (hash ^ 0xffu) * 0x100000001b3ull;  // net separator
    moved_outside += !critical.released[n] && bench.state->layers(n) != entry[n];
  }
  EXPECT_EQ(m.avg_tcp, 55041.952380958704);
  EXPECT_EQ(m.max_tcp, 120947.56421973699);
  EXPECT_EQ(m.via_overflow, 724);
  EXPECT_EQ(m.wire_overflow, 40);
  EXPECT_EQ(m.via_count, 22092);
  EXPECT_EQ(hash, 10355410205460496028ull);
  EXPECT_EQ(moved_outside, 237);  // displaced victims and rediscovered nets
}

}  // namespace
}  // namespace cpla::core
