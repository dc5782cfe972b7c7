#include "src/sta/path_enum.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/sta/timing_graph.hpp"
#include "tests/sta/sta_test_util.hpp"

namespace cpla::sta {
namespace {

// Brute force oracle: enumerate EVERY complete source-to-endpoint path by
// DFS over enabled edges, accumulating delay left-to-right exactly like
// path_enum.cpp does (so delays compare bitwise), then sort by the
// contract order (slack ascending, lexicographically smaller node
// sequence first). Exponential in principle — the fixture is sized so the
// full path set stays small, and the cap below asserts it stayed small.
constexpr std::size_t kOraclePathCap = 200000;

std::vector<TimingPath> all_paths(const TimingGraph& graph, int corner) {
  std::vector<TimingPath> out;
  std::vector<int> nodes;

  struct Dfs {
    const TimingGraph& graph;
    int corner;
    std::vector<TimingPath>& out;
    std::vector<int>& nodes;
    void walk(int v, double delay) {
      ASSERT_LT(out.size(), kOraclePathCap) << "fixture too big for the brute-force oracle";
      nodes.push_back(v);
      bool terminal = true;
      for (int e = graph.out_edge_begin(v); e < graph.out_edge_end(v); ++e) {
        if (!graph.edge_enabled(e)) continue;
        terminal = false;
        walk(graph.edge_to(e), delay + graph.edge_delay(corner, e));
      }
      if (terminal) {
        const double required = graph.corner_required(corner);
        out.push_back(TimingPath{nodes, delay, required, required - delay});
      }
      nodes.pop_back();
    }
  } dfs{graph, corner, out, nodes};

  for (int v = 0; v < graph.num_nodes(); ++v) {
    bool source = true;
    for (int i = 0; i < graph.in_degree(v); ++i) {
      if (graph.edge_enabled(graph.in_edge(v, i))) source = false;
    }
    if (source) dfs.walk(v, 0.0);
  }

  std::sort(out.begin(), out.end(), [](const TimingPath& a, const TimingPath& b) {
    if (a.slack != b.slack) return a.slack < b.slack;
    return a.nodes < b.nodes;
  });
  return out;
}

struct Fixture {
  core::Prepared run;
  CornerSet set;
  TimingGraph graph;

  Fixture() : run(sta_bench(12, 60)), set(*run.rc, three_corners()) {
    graph.build(*run.state, set);  // zero-delay stage edges
  }
};

TEST(TopKPaths, GoldenAgainstBruteForceAtEveryCorner) {
  Fixture f;
  for (int c = 0; c < f.graph.num_corners(); ++c) {
    const std::vector<TimingPath> oracle = all_paths(f.graph, c);
    ASSERT_GT(oracle.size(), 10u) << "fixture degenerated";
    for (int k : {1, 3, 17, static_cast<int>(oracle.size())}) {
      k = std::min(k, static_cast<int>(oracle.size()));
      const std::vector<TimingPath> got = f.graph.report_top_k_paths(c, k);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(k)) << "corner " << c << " k " << k;
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(got[i].nodes, oracle[i].nodes) << "corner " << c << " k " << k << " path " << i;
        EXPECT_TRUE(same_bits(got[i].delay, oracle[i].delay)) << "corner " << c << " path " << i;
        EXPECT_TRUE(same_bits(got[i].slack, oracle[i].slack)) << "corner " << c << " path " << i;
        EXPECT_TRUE(same_bits(got[i].required, oracle[i].required)) << "corner " << c;
      }
    }
  }
}

TEST(TopKPaths, KBeyondThePathCountReturnsEveryPathOnce) {
  Fixture f;
  const std::vector<TimingPath> oracle = all_paths(f.graph, 0);
  const std::vector<TimingPath> got =
      f.graph.report_top_k_paths(0, static_cast<int>(oracle.size()) + 50);
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nodes, oracle[i].nodes) << i;
  }
}

TEST(TopKPaths, KZeroIsEmpty) {
  Fixture f;
  EXPECT_TRUE(f.graph.report_top_k_paths(0, 0).empty());
}

TEST(TopKPaths, EmissionOrderIsSlackThenLex) {
  Fixture f;
  const std::vector<TimingPath> got = f.graph.report_top_k_paths(1, 40);
  for (std::size_t i = 1; i < got.size(); ++i) {
    const bool ordered = got[i - 1].slack < got[i].slack ||
                         (got[i - 1].slack == got[i].slack && got[i - 1].nodes < got[i].nodes);
    EXPECT_TRUE(ordered) << "paths " << i - 1 << " and " << i;
  }
}

TEST(TopKPaths, ReportedPathsAreRealGraphWalks) {
  Fixture f;
  for (const TimingPath& path : f.graph.report_top_k_paths(2, 25)) {
    ASSERT_FALSE(path.nodes.empty());
    // Starts at a source.
    const int head = path.nodes.front();
    for (int i = 0; i < f.graph.in_degree(head); ++i) {
      EXPECT_FALSE(f.graph.edge_enabled(f.graph.in_edge(head, i)));
    }
    // Every hop is an enabled edge; the delays re-accumulate bitwise.
    double delay = 0.0;
    for (std::size_t i = 1; i < path.nodes.size(); ++i) {
      const int from = path.nodes[i - 1];
      bool connected = false;
      for (int e = f.graph.out_edge_begin(from); e < f.graph.out_edge_end(from); ++e) {
        if (f.graph.edge_enabled(e) && f.graph.edge_to(e) == path.nodes[i]) {
          connected = true;
          delay += f.graph.edge_delay(2, e);
          break;
        }
      }
      ASSERT_TRUE(connected) << "hop " << i;
    }
    // Ends at an endpoint.
    const int tail = path.nodes.back();
    for (int e = f.graph.out_edge_begin(tail); e < f.graph.out_edge_end(tail); ++e) {
      EXPECT_FALSE(f.graph.edge_enabled(e));
    }
    EXPECT_TRUE(same_bits(path.delay, delay));
    EXPECT_TRUE(same_bits(path.slack, path.required - path.delay));
  }
}

TEST(TopKPaths, RepeatCallsAreIdentical) {
  Fixture f;
  const std::vector<TimingPath> a = f.graph.report_top_k_paths(0, 20);
  const std::vector<TimingPath> b = f.graph.report_top_k_paths(0, 20);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_TRUE(same_bits(a[i].delay, b[i].delay)) << i;
  }
}

}  // namespace
}  // namespace cpla::sta
