#include "src/core/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/core/critical.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"

namespace cpla::core {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::SynthSpec spec;
    spec.xsize = spec.ysize = 24;
    spec.num_nets = 250;
    spec.num_layers = 6;
    spec.seed = 41;
    prepared_ = new Prepared(prepare(gen::generate(spec)));
    critical_ = new CriticalSet(select_critical(*prepared_->state, *prepared_->rc, 0.05));
  }
  static void TearDownTestSuite() {
    delete critical_;
    delete prepared_;
    critical_ = nullptr;
    prepared_ = nullptr;
  }

  static RoundTiming timings() {
    return freeze_timing(*prepared_->state, *prepared_->rc, critical_->nets, ModelOptions{});
  }

  static std::vector<SegRef> all_refs() {
    std::vector<SegRef> refs;
    for (int net : critical_->nets) {
      for (const auto& seg : prepared_->state->tree(net).segs) {
        refs.push_back(SegRef{net, seg.id, {(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2}});
      }
    }
    return refs;
  }

  static Prepared* prepared_;
  static CriticalSet* critical_;
};

Prepared* ModelTest::prepared_ = nullptr;
CriticalSet* ModelTest::critical_ = nullptr;

TEST_F(ModelTest, CriticalSelectionPicksWorstNets) {
  ASSERT_FALSE(critical_->nets.empty());
  const auto& state = *prepared_->state;
  const auto& rc = *prepared_->rc;
  // Released nets are sorted worst-first.
  double prev = 1e300;
  for (int net : critical_->nets) {
    const double d = timing::critical_delay(state.tree(net), state.layers(net), rc);
    EXPECT_LE(d, prev + 1e-9);
    prev = d;
  }
  // Any released net is at least as slow as every unreleased net.
  double max_unreleased = 0.0;
  for (int n = 0; n < state.num_nets(); ++n) {
    if (critical_->released[n] || state.tree(n).segs.empty()) continue;
    max_unreleased = std::max(
        max_unreleased, timing::critical_delay(state.tree(n), state.layers(n), rc));
  }
  EXPECT_GE(prev, max_unreleased - 1e-9);
}

TEST_F(ModelTest, BuildsConsistentProblem) {
  const auto t = timings();
  const auto refs = all_refs();
  PartitionOptions popt;
  const PartitionResult parts =
      partition(prepared_->design->grid.xsize(), prepared_->design->grid.ysize(), refs, popt);
  ASSERT_FALSE(parts.leaves.empty());

  int total_vars = 0;
  for (const auto& leaf : parts.leaves) {
    const PartitionProblem p =
        build_partition_problem(*prepared_->state, *prepared_->rc, t, leaf, {});
    total_vars += static_cast<int>(p.vars.size());
    EXPECT_EQ(p.vars.size(), leaf.segments.size());

    for (const auto& var : p.vars) {
      ASSERT_FALSE(var.layers.empty());
      ASSERT_EQ(var.cost.size(), var.layers.size());
      // Current layer must remain available.
      EXPECT_NE(std::find(var.layers.begin(), var.layers.end(), var.current_layer),
                var.layers.end());
      const bool horizontal = prepared_->state->tree(var.net).segs[var.seg].horizontal;
      for (std::size_t k = 0; k < var.layers.size(); ++k) {
        EXPECT_EQ(prepared_->design->grid.is_horizontal(var.layers[k]), horizontal);
        EXPECT_TRUE(std::isfinite(var.cost[k]));
        EXPECT_GE(var.cost[k], 0.0);
      }
      EXPECT_GT(var.weight, 0.0);
      EXPECT_LE(var.weight, 1.0);
    }
    for (const auto& pair : p.pairs) {
      ASSERT_GE(pair.child, 0);
      ASSERT_LT(pair.child, static_cast<int>(p.vars.size()));
      ASSERT_GE(pair.parent, 0);
      ASSERT_LT(pair.parent, static_cast<int>(p.vars.size()));
      // The pair's segments really are parent/child in the tree.
      const auto& cseg = prepared_->state->tree(p.vars[pair.child].net).segs[p.vars[pair.child].seg];
      EXPECT_EQ(cseg.parent, p.vars[pair.parent].seg);
      EXPECT_EQ(p.vars[pair.child].net, p.vars[pair.parent].net);
      EXPECT_GE(pair.scale, 0.0);
    }
    for (const auto& row : p.cap_rows) {
      EXPECT_GE(row.cap_remaining, 0);
      // Pruning: rows only exist where the members could overflow.
      EXPECT_GT(static_cast<int>(row.members.size()), row.cap_remaining);
      for (int m : row.members) {
        ASSERT_GE(m, 0);
        ASSERT_LT(m, static_cast<int>(p.vars.size()));
      }
    }
  }
  EXPECT_EQ(total_vars, static_cast<int>(refs.size()));
}

TEST_F(ModelTest, PairCostZeroOnSameLayerAndGrowsWithSpan) {
  const auto t = timings();
  const auto refs = all_refs();
  const PartitionResult parts =
      partition(prepared_->design->grid.xsize(), prepared_->design->grid.ysize(), refs, {});
  for (const auto& leaf : parts.leaves) {
    const PartitionProblem p =
        build_partition_problem(*prepared_->state, *prepared_->rc, t, leaf, {});
    for (const auto& pair : p.pairs) {
      EXPECT_DOUBLE_EQ(p.pair_cost(pair, 2, 2), 0.0);
      if (pair.scale > 0.0) {
        EXPECT_LT(p.pair_cost(pair, 0, 1), p.pair_cost(pair, 0, 5));
      }
    }
  }
}

TEST_F(ModelTest, EvaluateMatchesManualSum) {
  const auto t = timings();
  const auto refs = all_refs();
  const PartitionResult parts =
      partition(prepared_->design->grid.xsize(), prepared_->design->grid.ysize(), refs, {});
  ASSERT_FALSE(parts.leaves.empty());
  const PartitionProblem p =
      build_partition_problem(*prepared_->state, *prepared_->rc, t, parts.leaves[0], {});
  std::vector<int> pick(p.vars.size(), 0);
  double manual = 0.0;
  for (const auto& var : p.vars) manual += var.cost[0];
  for (const auto& pair : p.pairs) {
    manual += p.pair_cost(pair, p.vars[pair.parent].layers[0], p.vars[pair.child].layers[0]);
  }
  EXPECT_NEAR(p.evaluate(pick), manual, 1e-9);
}

// The ordered-map capacity-row builder that build_partition_problem
// replaced with a stable-sorted flat vector, kept verbatim as an oracle
// (rebuilt from the problem's own vars). Row order and member order are
// solver-visible, so the two must agree exactly.
std::vector<CapRow> parent_cap_rows(const assign::AssignState& state,
                                    const PartitionProblem& p) {
  struct Bucket {
    std::vector<int> members;
    int self_usage = 0;
  };
  std::map<long long, Bucket> buckets;
  auto ekey = [](int l, int e) { return (static_cast<long long>(l) << 32) | e; };
  for (std::size_t vi = 0; vi < p.vars.size(); ++vi) {
    const VarGroup& var = p.vars[vi];
    for (int l : var.layers) {
      state.for_each_edge(var.net, var.seg, [&](int e) {
        Bucket& b = buckets[ekey(l, e)];
        b.members.push_back(static_cast<int>(vi));
        if (l == var.current_layer) b.self_usage += 1;
      });
    }
  }
  std::vector<CapRow> rows;
  for (auto& [ke, bucket] : buckets) {
    const int l = static_cast<int>(ke >> 32);
    const int e = static_cast<int>(ke & 0xffffffff);
    const int others = state.wire_usage(l, e) - bucket.self_usage;
    const int remaining = std::max(0, state.wire_cap(l, e) - others);
    if (static_cast<int>(bucket.members.size()) > remaining) {
      rows.push_back(CapRow{l, e, remaining, std::move(bucket.members)});
    }
  }
  return rows;
}

/// Asserts that every partition's cap_rows equal the oracle's, and returns
/// the number of rows compared.
int expect_oracle_rows(const Prepared& run, const CriticalSet& critical,
                       const std::vector<PartitionRegion>& regions) {
  const RoundTiming t = freeze_timing(*run.state, *run.rc, critical.nets, ModelOptions{});
  int compared = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const PartitionProblem p = build_partition_problem(*run.state, *run.rc, t, regions[r], {});
    const std::vector<CapRow> expected = parent_cap_rows(*run.state, p);
    EXPECT_EQ(p.cap_rows.size(), expected.size()) << "region " << r;
    if (p.cap_rows.size() != expected.size()) return compared;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(p.cap_rows[i].layer, expected[i].layer) << "region " << r << " row " << i;
      EXPECT_EQ(p.cap_rows[i].edge, expected[i].edge) << "region " << r << " row " << i;
      EXPECT_EQ(p.cap_rows[i].cap_remaining, expected[i].cap_remaining)
          << "region " << r << " row " << i;
      EXPECT_EQ(p.cap_rows[i].members, expected[i].members) << "region " << r << " row " << i;
      ++compared;
    }
  }
  return compared;
}

std::vector<SegRef> refs_of(const assign::AssignState& state, const CriticalSet& critical) {
  std::vector<SegRef> refs;
  for (int net : critical.nets) {
    for (const auto& seg : state.tree(net).segs) {
      refs.push_back(SegRef{net, seg.id, {(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2}});
    }
  }
  return refs;
}

// Every partition of a flow round on a suite design, plus one region
// spanning the whole grid: thousands of (layer, edge) entries, so member
// order within a row depends on the sort being stable.
TEST(CapRowsOracle, FlatBuilderMatchesTheOrderedMap) {
  const Prepared run = prepare(gen::generate(gen::suite_spec("newblue1")));
  const CriticalSet critical = select_critical(*run.state, *run.rc, 0.03);
  const std::vector<SegRef> refs = refs_of(*run.state, critical);
  const auto& g = run.design->grid;
  const PartitionResult parts = partition(g.xsize(), g.ysize(), refs, {});
  ASSERT_GT(parts.leaves.size(), 10u);
  const int leaf_rows = expect_oracle_rows(run, critical, parts.leaves);
  RecordProperty("leaf_rows", leaf_rows);
  EXPECT_GT(leaf_rows, 0);

  PartitionRegion whole;
  whole.x1 = g.xsize();
  whole.y1 = g.ysize();
  whole.segments = refs;
  const int whole_rows = expect_oracle_rows(run, critical, {whole});
  RecordProperty("whole_rows", whole_rows);
  EXPECT_GT(whole_rows, 100);
}

}  // namespace
}  // namespace cpla::core
