#pragma once

// Shared fixtures for the src/sta suite: the standard 24x24 synthetic
// bench (same silhouette critical_test uses), a three-corner table that
// exercises the worst-over-corners merge, and the bitwise graph
// comparator the incremental / concurrency contracts are judged by.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"

namespace cpla::sta {

inline core::Prepared sta_bench(int size = 24, int nets = 300, std::uint64_t seed = 111) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = size;
  spec.num_nets = nets;
  spec.num_layers = 6;
  spec.seed = seed;
  return core::prepare(gen::generate(spec));
}

/// Slow, fast, and a fixed-budget corner: distinct scales so per-corner
/// values genuinely differ and the merge has something to merge.
inline std::vector<RcCorner> three_corners() {
  return {
      RcCorner{"slow", 1.3, 1.2, 1.1, -1.0},
      RcCorner{"fast", 0.8, 0.9, 0.95, -1.0},
      RcCorner{"budget", 1.0, 1.0, 1.0, 1.0e4},
  };
}

/// Bitwise equality that distinguishes +0.0 from -0.0 (the contract is
/// bit-identity, not numeric equality).
inline bool same_bits(double a, double b) {
  return a == b && std::signbit(a) == std::signbit(b);
}

/// Asserts two graphs agree on shape and on every arrival/required/slack
/// value and edge delay bitwise, at every corner, node and edge.
inline void expect_graphs_bit_identical(const TimingGraph& got, const TimingGraph& want) {
  ASSERT_EQ(got.num_corners(), want.num_corners());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.num_levels(), want.num_levels());
  ASSERT_EQ(got.endpoints(), want.endpoints());
  for (int c = 0; c < got.num_corners(); ++c) {
    ASSERT_TRUE(same_bits(got.corner_required(c), want.corner_required(c))) << "corner " << c;
    for (int v = 0; v < got.num_nodes(); ++v) {
      ASSERT_TRUE(same_bits(got.arrival(c, v), want.arrival(c, v)))
          << "arrival corner " << c << " node " << v;
      ASSERT_TRUE(same_bits(got.required(c, v), want.required(c, v)))
          << "required corner " << c << " node " << v;
      ASSERT_TRUE(same_bits(got.slack(c, v), want.slack(c, v)))
          << "slack corner " << c << " node " << v;
    }
  }
  for (int v = 0; v < got.num_nodes(); ++v) {
    ASSERT_TRUE(same_bits(got.worst_slack(v), want.worst_slack(v))) << "worst node " << v;
  }
  // Every edge's delays, cycle-broken edges included.
  for (int e = 0; e < got.num_edges(); ++e) {
    ASSERT_EQ(got.edge_enabled(e), want.edge_enabled(e)) << "edge " << e;
    for (int c = 0; c < got.num_corners(); ++c) {
      ASSERT_TRUE(same_bits(got.edge_delay(c, e), want.edge_delay(c, e)))
          << "delay corner " << c << " edge " << e;
    }
  }
}

}  // namespace cpla::sta
