#include <gtest/gtest.h>

#include "src/core/critical.hpp"
#include "src/core/ilp_engine.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/sdp_engine.hpp"
#include "src/gen/synth.hpp"

namespace cpla::core {
namespace {

class EngineTest : public ::testing::Test {
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

  static std::vector<PartitionProblem> problems() {
    const RoundTiming t =
        freeze_timing(*prepared_->state, *prepared_->rc, critical_->nets, ModelOptions{});
    std::vector<SegRef> refs;
    for (int net : critical_->nets) {
      for (const auto& seg : prepared_->state->tree(net).segs) {
        refs.push_back(SegRef{net, seg.id, {(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2}});
      }
    }
    PartitionOptions popt;
    popt.max_segments = 8;
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

  static Prepared* prepared_;
  static CriticalSet* critical_;
};

Prepared* EngineTest::prepared_ = nullptr;
CriticalSet* EngineTest::critical_ = nullptr;

TEST_F(EngineTest, PostMapRespectsCapacities) {
  for (const PartitionProblem& p : problems()) {
    if (p.vars.empty()) continue;
    // Uniform fractional input: everything ties; post-map must still stay
    // within the capacity rows it was given.
    std::vector<std::vector<double>> x(p.vars.size());
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      x[i].assign(p.vars[i].layers.size(), 1.0 / p.vars[i].layers.size());
    }
    const std::vector<int> pick = post_map(p, *prepared_->state, x);
    ASSERT_EQ(pick.size(), p.vars.size());
    for (std::size_t i = 0; i < pick.size(); ++i) {
      ASSERT_GE(pick[i], 0);
      ASSERT_LT(pick[i], static_cast<int>(p.vars[i].layers.size()));
    }
    // Check the explicit capacity rows.
    for (const auto& row : p.cap_rows) {
      int used = 0;
      for (int m : row.members) {
        if (p.vars[m].layers[pick[m]] == row.layer) ++used;
      }
      EXPECT_LE(used, row.cap_remaining) << "cap row violated";
    }
  }
}

TEST_F(EngineTest, PostMapPrefersHighXValues) {
  for (const PartitionProblem& p : problems()) {
    if (p.vars.empty()) continue;
    // Give each var a clear winner: its currently assigned layer.
    std::vector<std::vector<double>> x(p.vars.size());
    for (std::size_t i = 0; i < p.vars.size(); ++i) {
      x[i].assign(p.vars[i].layers.size(), 0.01);
      for (std::size_t k = 0; k < p.vars[i].layers.size(); ++k) {
        if (p.vars[i].layers[k] == p.vars[i].current_layer) x[i][k] = 0.99;
      }
    }
    const std::vector<int> pick = post_map(p, *prepared_->state, x);
    // The current assignment is feasible by construction, so post-map
    // should reproduce it exactly.
    for (std::size_t i = 0; i < pick.size(); ++i) {
      EXPECT_EQ(p.vars[i].layers[pick[i]], p.vars[i].current_layer);
    }
  }
}

TEST_F(EngineTest, SdpEngineProducesValidImprovingPicks) {
  double improved = 0, total = 0;
  for (const PartitionProblem& p : problems()) {
    if (p.vars.empty()) continue;
    const EngineResult r = solve_partition_sdp(p, *prepared_->state);
    EXPECT_TRUE(r.solver_ok);
    ASSERT_EQ(r.pick.size(), p.vars.size());
    const double current = p.evaluate(current_pick(p));
    total += 1;
    if (r.objective <= current + 1e-6) improved += 1;
    // The SDP relaxation bound can't exceed the integral solution value by
    // more than numerical noise.
    EXPECT_LE(r.relaxation_obj, r.objective + 1e-3 * (1.0 + std::abs(r.objective)));
  }
  ASSERT_GT(total, 0);
  // The engine should match-or-beat the incumbent on nearly every
  // partition (post-mapping ties can rarely lose).
  EXPECT_GE(improved / total, 0.9);
}

TEST_F(EngineTest, IlpMatchesOrBeatsSdpOnModelObjective) {
  int compared = 0;
  for (const PartitionProblem& p : problems()) {
    if (p.vars.empty() || p.vars.size() > 6) continue;  // keep ILP fast
    const EngineResult sdp_r = solve_partition_sdp(p, *prepared_->state);
    ilp::MipOptions mopt;
    mopt.time_limit_s = 20.0;
    const EngineResult ilp_r = solve_partition_ilp(p, *prepared_->state, mopt);
    if (!ilp_r.solver_ok) continue;
    // ILP solves the model exactly (modulo the soft via rows), so its model
    // objective is never worse than the rounded SDP's.
    EXPECT_LE(ilp_r.objective, sdp_r.objective + 1e-6 * (1.0 + std::abs(sdp_r.objective)));
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_F(EngineTest, EmptyProblemIsHandled) {
  PartitionProblem p;
  const EngineResult r1 = solve_partition_sdp(p, *prepared_->state);
  EXPECT_TRUE(r1.pick.empty());
  const EngineResult r2 = solve_partition_ilp(p, *prepared_->state);
  EXPECT_TRUE(r2.pick.empty());
}

}  // namespace
}  // namespace cpla::core
