// Partition-level Lagrangian engine: feasibility and the never-worse
// contract on real partition problems, golden comparison against
// brute-force enumeration on small ones, bitwise determinism, and the
// cross-backend escalation path when a lagr solve is forced to fail.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/critical.hpp"
#include "src/core/lagr_engine.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/solve_guard.hpp"
#include "src/gen/synth.hpp"
#include "src/util/fault_inject.hpp"

namespace cpla::core {
namespace {

class LagrEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::SynthSpec spec;
    spec.xsize = spec.ysize = 20;
    spec.num_nets = 180;
    spec.num_layers = 6;
    spec.seed = 51;
    prepared_ = new Prepared(prepare(gen::generate(spec)));
    critical_ = new CriticalSet(select_critical(*prepared_->state, *prepared_->rc, 0.04));
  }
  static void TearDownTestSuite() {
    delete critical_;
    delete prepared_;
  }
  void TearDown() override { FaultInjector::instance().reset(); }

  static std::vector<PartitionProblem> problems(int max_segments) {
    const RoundTiming t =
        freeze_timing(*prepared_->state, *prepared_->rc, critical_->nets, ModelOptions{});
    std::vector<SegRef> refs;
    for (int net : critical_->nets) {
      for (const auto& seg : prepared_->state->tree(net).segs) {
        refs.push_back(SegRef{net, seg.id, {(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2}});
      }
    }
    PartitionOptions popt;
    popt.max_segments = max_segments;
    const PartitionResult parts =
        partition(prepared_->design->grid.xsize(), prepared_->design->grid.ysize(), refs, popt);
    std::vector<PartitionProblem> out;
    for (const auto& leaf : parts.leaves) {
      out.push_back(build_partition_problem(*prepared_->state, *prepared_->rc, t, leaf, {}));
    }
    return out;
  }

  static std::vector<int> current_pick(const PartitionProblem& p) {
    std::vector<int> pick(p.vars.size(), 0);
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
        if (p.vars[i].layers[k] == p.vars[i].current_layer) pick[i] = static_cast<int>(k);
      }
    }
    return pick;
  }

  /// Exhaustive feasible optimum, or false when the product space is too
  /// large to enumerate.
  static bool brute_force(const PartitionProblem& p, double* best) {
    std::uint64_t combos = 1;
    for (const VarGroup& v : p.vars) {
      combos *= v.layers.size();
      if (combos > 200000) return false;
    }
    std::vector<int> pick(p.vars.size(), 0);
    bool any = false;
    for (std::uint64_t it = 0; it < combos; ++it) {
      std::uint64_t rem = it;
      for (std::size_t i = 0; i < p.vars.size(); ++i) {
        pick[i] = static_cast<int>(rem % p.vars[i].layers.size());
        rem /= p.vars[i].layers.size();
      }
      if (!rows_feasible(p, pick)) continue;
      const double obj = p.evaluate(pick);
      if (!any || obj < *best) *best = obj;
      any = true;
    }
    return any;
  }

  static Prepared* prepared_;
  static CriticalSet* critical_;
};

Prepared* LagrEngineTest::prepared_ = nullptr;
CriticalSet* LagrEngineTest::critical_ = nullptr;

TEST_F(LagrEngineTest, PicksAreFeasibleAndNeverWorseThanIncumbent) {
  int solved = 0;
  double incumbent_total = 0.0, lagr_total = 0.0;
  for (const PartitionProblem& p : problems(8)) {
    if (p.vars.empty()) continue;
    const EngineResult r = solve_partition_lagr(p, *prepared_->state);
    EXPECT_TRUE(r.solver_ok);
    ASSERT_EQ(r.pick.size(), p.vars.size());
    EXPECT_TRUE(rows_feasible(p, r.pick));
    EXPECT_DOUBLE_EQ(r.objective, p.evaluate(r.pick));
    const double incumbent = p.evaluate(current_pick(p));
    EXPECT_LE(r.objective, incumbent * (1.0 + 1e-12) + 1e-12);
    incumbent_total += incumbent;
    lagr_total += r.objective;
    ++solved;
  }
  ASSERT_GT(solved, 0);
  // The engine must actually optimize, not just echo incumbents.
  EXPECT_LT(lagr_total, incumbent_total);
}

TEST_F(LagrEngineTest, TracksBruteForceOptimumOnSmallPartitions) {
  int enumerated = 0, optimal = 0;
  for (const PartitionProblem& p : problems(6)) {
    if (p.vars.empty()) continue;
    double best = 0.0;
    if (!brute_force(p, &best)) continue;
    ++enumerated;
    const EngineResult r = solve_partition_lagr(p, *prepared_->state);
    // Never below the true optimum (evaluate/rows_feasible consistency)...
    EXPECT_GE(r.objective, best - 1e-9 * std::abs(best) - 1e-12);
    // ...and within a modest band above it (the sweep linearizes pair
    // costs at the neighbors' picks, so a coupled partition can settle in
    // a nearby local minimum — the flow-level never-worse contract, not
    // per-partition optimality, is the hard guarantee).
    EXPECT_LE(r.objective, best * 1.10 + 1e-9);
    if (r.objective <= best + 1e-9 * std::abs(best) + 1e-12) ++optimal;
  }
  ASSERT_GT(enumerated, 0) << "no partition small enough to enumerate";
  // Most small partitions should land exactly on the optimum.
  EXPECT_GE(optimal * 2, enumerated);
}

TEST_F(LagrEngineTest, RepeatedSolvesAreBitwiseIdentical) {
  for (const PartitionProblem& p : problems(8)) {
    if (p.vars.empty()) continue;
    const EngineResult a = solve_partition_lagr(p, *prepared_->state);
    const EngineResult b = solve_partition_lagr(p, *prepared_->state);
    EXPECT_EQ(a.pick, b.pick);
    EXPECT_EQ(a.objective, b.objective);  // bitwise: registered contract TU
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

TEST_F(LagrEngineTest, FaultedSolveEscalatesToSdpRescue) {
  GuardStats stats;
  bool escalated = false;
  FaultInjector::instance().arm_always("lagr.solve");
  for (const PartitionProblem& p : problems(8)) {
    if (p.vars.empty()) continue;
    const GuardedSolve s = guarded_solve(p, *prepared_->state, Engine::kLagr, sdp::SdpOptions{},
                                         ilp::MipOptions{}, GuardOptions{}, &stats);
    ASSERT_EQ(s.result.pick.size(), p.vars.size());
    EXPECT_TRUE(rows_feasible(p, s.result.pick));
    EXPECT_NE(s.tier, GuardTier::kPrimary) << "armed lagr.solve must not pass the primary tier";
    if (s.tier == GuardTier::kRetry) escalated = true;
  }
  FaultInjector::instance().reset();
  EXPECT_TRUE(escalated) << "no partition reached the cross-backend SDP retry tier";
  EXPECT_GT(stats.tier_used[static_cast<int>(GuardTier::kRetry)], 0);
}

}  // namespace
}  // namespace cpla::core
