#include "src/sta/corner.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "src/timing/elmore.hpp"
#include "src/timing/rc_table.hpp"
#include "src/util/rng.hpp"
#include "tests/sta/sta_test_util.hpp"

namespace cpla::sta {
namespace {

Result<std::vector<RcCorner>> parse(const std::string& text) {
  std::istringstream in(text);
  return parse_corners(in);
}

TEST(ParseCorners, FullTableWithDefaultsCommentsAndBlanks) {
  auto result = parse(
      "# three corners, one per line\n"
      "corner slow 1.3 1.2 1.1 12000\n"
      "\n"
      "corner fast 0.8 0.9   # optional fields keep defaults\n"
      "corner typ 1.0 1.0 1.0\n");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::vector<RcCorner> corners = result.take();
  ASSERT_EQ(corners.size(), 3u);

  EXPECT_EQ(corners[0].name, "slow");
  EXPECT_DOUBLE_EQ(corners[0].res_scale, 1.3);
  EXPECT_DOUBLE_EQ(corners[0].cap_scale, 1.2);
  EXPECT_DOUBLE_EQ(corners[0].driver_scale, 1.1);
  EXPECT_DOUBLE_EQ(corners[0].required_time, 12000.0);

  // Absent optionals: driver_scale 1.0, required_time derived (-1).
  EXPECT_EQ(corners[1].name, "fast");
  EXPECT_DOUBLE_EQ(corners[1].driver_scale, 1.0);
  EXPECT_LT(corners[1].required_time, 0.0);

  EXPECT_EQ(corners[2].name, "typ");
  EXPECT_LT(corners[2].required_time, 0.0);
}

TEST(ParseCorners, ErrorsCarryTheLineNumber) {
  struct Case {
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"corner a 1 1\nwrong b 1 1\n", 2},         // bad keyword
      {"corner a 1\n", 1},                        // missing cap_scale
      {"corner a 1 1 bogus\n", 1},                // malformed optional
      {"corner a 1 1 1 1 extra\n", 1},            // trailing junk
      {"corner a 1 1\ncorner b 0 1\n", 2},        // non-positive scale
      {"corner a 1 1\ncorner a 1 1\n", 2},        // duplicate name
      {"corner a 1 1 1 12000junk\n", 1},          // partially-numeric token
      {"corner a 1 1 nan\n", 1},                  // non-finite driver scale
      {"corner a 1 1 1 inf\n", 1},                // non-finite required time
  };
  for (const Case& c : cases) {
    auto result = parse(c.text);
    ASSERT_FALSE(result.is_ok()) << c.text;
    EXPECT_EQ(result.status().code(), StatusCode::kBadInput) << c.text;
    EXPECT_EQ(result.status().line(), c.line) << result.status().to_string();
  }
}

TEST(ParseCorners, EmptyTableIsAnError) {
  auto result = parse("# only comments\n\n");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 3);  // one past the last line
}

TEST(ParseCornersFile, MissingFileIsBadInput) {
  auto result = parse_corners_file("/nonexistent/corners.txt");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
}

TEST(CornerSet, MaterializesScaledTablesPerCorner) {
  core::Prepared run = sta_bench(12, 40);
  const timing::RcTable& base = *run.rc;
  CornerSet set(base, {RcCorner{"slow", 2.0, 3.0, 1.5, -1.0}, RcCorner{}});
  ASSERT_EQ(set.size(), 2);

  const timing::RcTable& slow = set.rc(0);
  for (int l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(slow.res(l), base.res(l) * 2.0) << l;
    EXPECT_DOUBLE_EQ(slow.via_res(l), base.via_res(l) * 2.0) << l;
    EXPECT_DOUBLE_EQ(slow.cap(l), base.cap(l) * 3.0) << l;
  }
  EXPECT_DOUBLE_EQ(slow.sink_cap(), base.sink_cap() * 3.0);
  EXPECT_DOUBLE_EQ(slow.driver_res(), base.driver_res() * 1.5);

  // The default corner is the unscaled base.
  const timing::RcTable& typ = set.rc(1);
  for (int l = 0; l < 6; ++l) {
    EXPECT_DOUBLE_EQ(typ.res(l), base.res(l)) << l;
    EXPECT_DOUBLE_EQ(typ.cap(l), base.cap(l)) << l;
  }
  EXPECT_DOUBLE_EQ(typ.sink_cap(), base.sink_cap());
  EXPECT_DOUBLE_EQ(typ.driver_res(), base.driver_res());
}

TEST(CornerSet, SingleIsOneDerivedCorner) {
  core::Prepared run = sta_bench(12, 40);
  const timing::RcTable& base = *run.rc;
  CornerSet set = CornerSet::single(base);
  ASSERT_EQ(set.size(), 1);
  EXPECT_LT(set.corner(0).required_time, 0.0);
  EXPECT_DOUBLE_EQ(set.rc(0).driver_res(), base.driver_res());
}

// compute_timing as it was before the delay-only kernel took over its
// arithmetic, kept verbatim as the oracle of every timing entry point.
timing::NetTiming parent_compute_timing(const route::SegTree& tree,
                                        const std::vector<int>& layers,
                                        const timing::RcTable& rc) {
  const std::size_t n = tree.segs.size();
  timing::NetTiming t;
  t.downstream_cap.assign(n, 0.0);
  t.arrival.assign(n, 0.0);
  t.on_critical_path.assign(n, false);
  t.sink_delay.assign(tree.sinks.size(), 0.0);
  auto wire_cap = [&](std::size_t s) {
    return rc.cap(layers[s]) * static_cast<double>(tree.segs[s].length());
  };
  for (const auto& sink : tree.sinks) {
    if (sink.seg_id >= 0) t.downstream_cap[sink.seg_id] += rc.sink_cap();
  }
  for (std::size_t i = n; i-- > 0;) {
    const auto& seg = tree.segs[i];
    for (int c : seg.children) {
      t.downstream_cap[i] += wire_cap(c) + t.downstream_cap[c];
    }
  }
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) total += wire_cap(s);
  total += static_cast<double>(tree.sinks.size()) * rc.sink_cap();
  t.total_cap = total;
  const double driver_delay = rc.driver_res() * total;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& seg = tree.segs[i];
    const int l = layers[i];
    const double ts = rc.res(l) * seg.length() * (wire_cap(i) / 2.0 + t.downstream_cap[i]);
    double base;
    if (seg.parent < 0) {
      const double via = rc.via_stack_res(tree.root_pin_layer, l) *
                         (wire_cap(i) + t.downstream_cap[i]);
      base = driver_delay + via;
    } else {
      const int lp = layers[seg.parent];
      const double via = rc.via_stack_res(lp, l) *
                         std::min(t.downstream_cap[seg.parent], t.downstream_cap[i]);
      base = t.arrival[seg.parent] + via;
    }
    t.arrival[i] = base + ts;
  }
  for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
    const auto& sink = tree.sinks[k];
    if (sink.seg_id < 0) {
      t.sink_delay[k] = driver_delay;
    } else {
      const double via = rc.via_stack_res(layers[sink.seg_id], sink.pin_layer) * rc.sink_cap();
      t.sink_delay[k] = t.arrival[sink.seg_id] + via;
    }
    if (t.sink_delay[k] > t.max_sink_delay || t.critical_sink < 0) {
      t.max_sink_delay = t.sink_delay[k];
      t.critical_sink = static_cast<int>(k);
    }
  }
  if (tree.sinks.empty()) t.max_sink_delay = driver_delay;
  if (t.critical_sink >= 0 && tree.sinks[t.critical_sink].seg_id >= 0) {
    for (int s : tree.path_to_root(tree.sinks[t.critical_sink].seg_id)) {
      t.on_critical_path[s] = true;
    }
  }
  t.criticality.assign(n, 0.0);
  std::vector<double> worst_through(n, 0.0);
  for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
    const int s = tree.sinks[k].seg_id;
    if (s >= 0) worst_through[s] = std::max(worst_through[s], t.sink_delay[k]);
  }
  for (std::size_t i = n; i-- > 0;) {
    for (int c : tree.segs[i].children) {
      worst_through[i] = std::max(worst_through[i], worst_through[c]);
    }
  }
  if (t.max_sink_delay > 0.0) {
    for (std::size_t i = 0; i < n; ++i) t.criticality[i] = worst_through[i] / t.max_sink_delay;
  }
  return t;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what, int net) {
  ASSERT_EQ(got.size(), want.size()) << what << " net " << net;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i])) << what << " net " << net << " index " << i;
  }
}

// The delay-only Elmore kernel, compute_timing built on it, critical_delay
// and the timing graph's net edges against the oracle, bit for bit: every
// net of a routed bench under its own and three random layer vectors, at
// every corner of the single and the three-corner sets.
TEST(ElmoreKernel, MatchesTheComputeTimingOracleAtEveryCorner) {
  core::Prepared bench = sta_bench();
  const assign::AssignState& state = *bench.state;
  const CornerSet single = CornerSet::single(*bench.rc);
  const CornerSet three(*bench.rc, three_corners());
  Rng rng(0xe1307eu);
  std::vector<double> cd, arrival, sinks;
  int compared = 0;
  for (const CornerSet* corners : {&single, &three}) {
    TimingGraph graph;
    graph.build(state, *corners);
    for (int c = 0; c < corners->size(); ++c) {
      const timing::RcTable& rc = corners->rc(c);
      for (int net = 0; net < state.num_nets(); ++net) {
        const route::SegTree& tree = state.tree(net);
        if (tree.segs.empty()) continue;
        for (int variant = 0; variant < 4; ++variant) {
          std::vector<int> layers = state.layers(net);
          if (variant > 0) {
            for (const route::Segment& s : tree.segs) {
              const std::vector<int>& allowed = state.allowed_layers(s.horizontal);
              layers[s.id] = allowed[rng.uniform_int(0, static_cast<std::int64_t>(allowed.size()) - 1)];
            }
          }
          const timing::NetTiming want = parent_compute_timing(tree, layers, rc);
          cd.assign(tree.segs.size(), -1.0);
          arrival.assign(tree.segs.size(), -1.0);
          sinks.assign(tree.sinks.size(), -1.0);
          const timing::ElmoreSummary got =
              timing::elmore_delays(tree, layers, rc, cd, arrival, sinks);
          ASSERT_TRUE(same_bits(got.max_sink_delay, want.max_sink_delay)) << "net " << net;
          ASSERT_TRUE(same_bits(got.total_cap, want.total_cap)) << "net " << net;
          ASSERT_EQ(got.critical_sink, want.critical_sink) << "net " << net;
          expect_same_bits(cd, want.downstream_cap, "downstream cap", net);
          expect_same_bits(arrival, want.arrival, "arrival", net);
          expect_same_bits(sinks, want.sink_delay, "sink delay", net);

          const timing::NetTiming full = timing::compute_timing(tree, layers, rc);
          ASSERT_TRUE(same_bits(full.max_sink_delay, want.max_sink_delay)) << "net " << net;
          ASSERT_EQ(full.critical_sink, want.critical_sink) << "net " << net;
          ASSERT_EQ(full.on_critical_path, want.on_critical_path) << "net " << net;
          expect_same_bits(full.criticality, want.criticality, "criticality", net);
          expect_same_bits(full.sink_delay, want.sink_delay, "sink delay", net);
          ASSERT_TRUE(same_bits(timing::critical_delay(tree, layers, rc), want.max_sink_delay))
              << "net " << net;

          if (variant == 0 && graph.has_net(net)) {  // the graph times the current layers
            const int first = graph.out_edge_begin(graph.driver_node(net));
            for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
              ASSERT_TRUE(same_bits(graph.edge_delay(c, first + static_cast<int>(k)),
                                    want.sink_delay[k]))
                  << "net " << net << " sink " << k;
            }
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 4000);
}

}  // namespace
}  // namespace cpla::sta
