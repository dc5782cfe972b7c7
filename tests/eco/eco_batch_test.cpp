// Regression suite for applying a batch of deltas. The plain apply() loop
// every caller uses is deliberately NOT transactional — a mid-batch
// failure leaves the already-applied prefix in place (pinned here so the
// behavior can never change silently).

#include <gtest/gtest.h>

#include <vector>

#include "src/eco/eco_session.hpp"
#include "tests/eco/eco_test_util.hpp"

namespace cpla::eco {
namespace {

constexpr std::uint64_t kSeed = 77;

core::Prepared batch_bench() { return eco::make_bench(kSeed, 14, 80); }

int first_horizontal(const grid::GridGraph& g) {
  int layer = 0;
  while (!g.is_horizontal(layer)) ++layer;
  return layer;
}

/// A mixed batch touching all five delta kinds, valid in order.
std::vector<Delta> mixed_batch(const grid::Design& design, const assign::AssignState& state) {
  const int h = first_horizontal(design.grid);
  const int cap = design.grid.edge_capacity(h, design.grid.h_edge_id(2, 3));
  std::vector<Delta> batch;
  batch.push_back(Delta::capacity_adjusted(h, 2, 3, cap + 3));
  batch.push_back(Delta::criticality_changed(1, true));
  batch.push_back(Delta::net_rerouted(2, state.tree(2), state.layers(2)));
  batch.push_back(Delta::net_added(state.tree(3), state.layers(3)));
  batch.push_back(Delta::net_removed(4));
  return batch;
}

TEST(EcoBatchTest, PlainApplyLoopLeavesThePartialPrefixApplied) {
  // The pinned behavior: stop-at-first-failure, keep the prefix. The
  // serve-layer journal relies on exactly this (each delta journals and
  // applies independently; a rejected delta rejects identically on replay).
  core::Prepared a = batch_bench();
  core::Prepared b = batch_bench();
  EcoSession sa(a.design.get(), a.state.get(), a.rc.get());
  EcoSession sb(b.design.get(), b.state.get(), b.rc.get());

  std::vector<Delta> batch = mixed_batch(*a.design, *a.state);
  batch.insert(batch.begin() + 2, Delta::net_removed(999999));  // poison mid-batch

  int failures = 0;
  for (const Delta& d : batch) {
    if (!sa.apply(d).is_ok()) {
      ++failures;
      break;  // the CLI/service loop stops at the first failure
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(sa.stats().deltas_applied, 2);

  // The twin applies only the prefix — the two states must agree exactly.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(sb.apply(batch[i]).is_ok());
  expect_assignments_equal(*a.state, *b.state);
  EXPECT_EQ(sa.critical().nets, sb.critical().nets);
  const int h = first_horizontal(a.design->grid);
  EXPECT_EQ(a.design->grid.edge_capacity(h, a.design->grid.h_edge_id(2, 3)),
            b.design->grid.edge_capacity(h, b.design->grid.h_edge_id(2, 3)));
}

}  // namespace
}  // namespace cpla::eco
