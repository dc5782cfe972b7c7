// The per-partition engine choice (core::primary_engine: kHybrid's size
// and deadline rule, every other engine passed through) plus the
// end-to-end hybrid flow: both engines exercised through
// core::optimize(), counted per solve, deterministic across repeated runs,
// never worse than entry.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/solve_guard.hpp"
#include "src/gen/synth.hpp"

namespace cpla::core {
namespace {

// primary_engine's kHybrid cutoffs, in partition vars.
constexpr int kLagrMinVars = 48;
constexpr int kDeadlineMinVars = 12;

PartitionProblem problem_with_vars(int n) {
  PartitionProblem p;
  p.vars.resize(static_cast<std::size_t>(n));
  return p;
}

GuardOptions with_deadline() {
  GuardOptions guard;
  guard.deadline_ms = 10.0;
  return guard;
}

long used(const GuardStats& stats, Engine engine) {
  return stats.engine_used[static_cast<int>(engine)];
}

TEST(BackendArbiterTest, SdpModeReturnsBaseUntouched) {
  for (const GuardOptions& guard : {GuardOptions{}, with_deadline()}) {
    EXPECT_EQ(primary_engine(problem_with_vars(1000), guard, Engine::kSdp), Engine::kSdp);
  }
}

TEST(BackendArbiterTest, IlpBaseIsNeverOverridden) {
  for (const GuardOptions& guard : {GuardOptions{}, with_deadline()}) {
    EXPECT_EQ(primary_engine(problem_with_vars(1000), guard, Engine::kIlp), Engine::kIlp);
  }
}

TEST(BackendArbiterTest, LagrModeForcesLagrEverywhere) {
  for (const GuardOptions& guard : {GuardOptions{}, with_deadline()}) {
    EXPECT_EQ(primary_engine(problem_with_vars(1), guard, Engine::kLagr), Engine::kLagr);
  }
}

TEST(BackendArbiterTest, HybridRoutesBySizeThreshold) {
  const GuardOptions guard;  // no deadline
  EXPECT_EQ(primary_engine(problem_with_vars(kLagrMinVars - 1), guard, Engine::kHybrid),
            Engine::kSdp);
  EXPECT_EQ(primary_engine(problem_with_vars(kLagrMinVars), guard, Engine::kHybrid),
            Engine::kLagr);
}

TEST(BackendArbiterTest, HybridRoutesByDeadlinePressure) {
  const GuardOptions deadline = with_deadline();
  EXPECT_EQ(primary_engine(problem_with_vars(kDeadlineMinVars), deadline, Engine::kHybrid),
            Engine::kLagr);
  EXPECT_EQ(primary_engine(problem_with_vars(kDeadlineMinVars - 1), deadline, Engine::kHybrid),
            Engine::kSdp);
  // Same sizes without a deadline stay on the SDP tier.
  EXPECT_EQ(primary_engine(problem_with_vars(kDeadlineMinVars), GuardOptions{}, Engine::kHybrid),
            Engine::kSdp);
}

TEST(BackendArbiterTest, RecordNeverMovesChoice) {
  const std::vector<int> sizes = {1, kDeadlineMinVars - 1, kDeadlineMinVars, kLagrMinVars / 2,
                                  kLagrMinVars - 1, kLagrMinVars};
  auto choices = [&] {
    std::vector<Engine> out;
    for (int n : sizes) {
      for (const GuardOptions& guard : {GuardOptions{}, with_deadline()}) {
        out.push_back(primary_engine(problem_with_vars(n), guard, Engine::kHybrid));
      }
    }
    return out;
  };
  const std::vector<Engine> fresh = choices();

  // A stream of counted solves must not move any decision: the choice
  // reads only (problem, guard, engine). An empty partition is solved
  // without touching the state, on the engine its size resolves to.
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 8;
  spec.num_nets = 10;
  spec.seed = 5;
  Prepared bench = prepare(gen::generate(spec));
  GuardStats stats;
  for (int i = 0; i < 64; ++i) {
    const Engine engine = i % 3 == 0 ? Engine::kLagr : Engine::kHybrid;
    const GuardOptions guard = i % 2 == 0 ? GuardOptions{} : with_deadline();
    guarded_solve(PartitionProblem{}, *bench.state, engine, sdp::SdpOptions{}, ilp::MipOptions{},
                  guard, &stats);
  }
  EXPECT_EQ(stats.solves, 64);
  EXPECT_EQ(used(stats, Engine::kLagr), 22);
  EXPECT_EQ(used(stats, Engine::kSdp), 42);
  EXPECT_EQ(choices(), fresh);
}

TEST(BackendArbiterTest, StatsMergeAccumulates) {
  GuardStats a;
  a.engine_used[0] = 1;
  a.engine_used[1] = 2;
  a.engine_used[2] = 3;
  GuardStats b;
  b.engine_used[0] = 10;
  b.engine_used[1] = 20;
  b.engine_used[2] = 30;
  a.merge(b);
  EXPECT_EQ(used(a, Engine::kSdp), 11);
  EXPECT_EQ(used(a, Engine::kIlp), 22);
  EXPECT_EQ(used(a, Engine::kLagr), 33);
}

// --- End-to-end: Engine::kHybrid inside core::optimize() ----------------

class ArbiterFlowTest : public ::testing::Test {
 protected:
  static constexpr double kRatio = 0.1;

  static CplaOptions hybrid_options() {
    CplaOptions opt;
    opt.max_rounds = 2;
    // A raised partition cap plus a dense released set (kRatio) puts
    // partitions on both sides of the 48-var cutoff on a small instance.
    opt.partition.max_segments = 160;
    opt.engine = Engine::kHybrid;
    return opt;
  }

  static std::vector<std::vector<int>> all_layers(const assign::AssignState& state) {
    std::vector<std::vector<int>> out;
    for (int net = 0; net < state.num_nets(); ++net) out.push_back(state.layers(net));
    return out;
  }
};

TEST_F(ArbiterFlowTest, HybridExercisesBothBackendsAndStaysNeverWorse) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 400;
  spec.num_layers = 6;
  spec.seed = 77;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, kRatio);
  const LaMetrics before = compute_metrics(*bench.state, *bench.rc, critical);

  const OptimizeResult out = optimize(bench.state.get(), *bench.rc, critical, hybrid_options());
  EXPECT_TRUE(out.status.is_ok());
  const GuardStats& stats = out.result.guard_stats;
  EXPECT_GT(used(stats, Engine::kLagr), 0) << "no partition routed to lagr";
  EXPECT_GT(used(stats, Engine::kSdp), 0) << "no partition stayed on sdp";
  EXPECT_EQ(used(stats, Engine::kLagr) + used(stats, Engine::kSdp), stats.solves);

  const LaMetrics after = compute_metrics(*bench.state, *bench.rc, critical);
  EXPECT_LE(after.avg_tcp, before.avg_tcp * (1.0 + 1e-9));
  EXPECT_LE(after.max_tcp, before.max_tcp * (1.0 + 1e-9));
  EXPECT_LE(after.wire_overflow, before.wire_overflow);
  EXPECT_LE(after.via_overflow, before.via_overflow);
}

TEST_F(ArbiterFlowTest, HybridFlowIsDeterministicAcrossRuns) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 24;
  spec.num_nets = 400;
  spec.num_layers = 6;
  spec.seed = 77;
  Prepared bench = prepare(gen::generate(spec));
  const CriticalSet critical = select_critical(*bench.state, *bench.rc, kRatio);
  const std::vector<std::vector<int>> entry = all_layers(*bench.state);

  const OptimizeResult first = optimize(bench.state.get(), *bench.rc, critical, hybrid_options());
  const std::vector<std::vector<int>> landed = all_layers(*bench.state);

  for (int net = 0; net < bench.state->num_nets(); ++net) {
    bench.state->set_layers(net, std::vector<int>(entry[net]));
  }
  const OptimizeResult second =
      optimize(bench.state.get(), *bench.rc, critical, hybrid_options());

  for (Engine engine : {Engine::kSdp, Engine::kLagr}) {
    EXPECT_EQ(used(first.result.guard_stats, engine), used(second.result.guard_stats, engine));
  }
  EXPECT_EQ(all_layers(*bench.state), landed) << "hybrid flow not replayable";
}

}  // namespace
}  // namespace cpla::core
