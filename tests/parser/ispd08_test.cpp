#include "src/parser/ispd08.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "src/gen/synth.hpp"
#include "src/util/logging.hpp"

namespace cpla::parser {
namespace {

const char* kSample = R"(grid 10 8 4
vertical capacity 0 12 0 12
horizontal capacity 12 0 12 0
minimum width 1 1 1 1
minimum spacing 1 1 1 1
via spacing 1 1 1 1
0 0 10 10

num net 2
netA 0 2 1
15 15 1
85 25 1
netB 1 3 1
5 5 1
5 75 1
95 75 2

2
1 2 1   2 2 1   4
3 3 2   3 4 2   0
)";

TEST(Ispd08Reader, ParsesHeaderAndGrid) {
  std::istringstream in(kSample);
  const auto design = read_ispd08(in, "sample");
  ASSERT_TRUE(design.has_value());
  EXPECT_EQ(design->grid.xsize(), 10);
  EXPECT_EQ(design->grid.ysize(), 8);
  EXPECT_EQ(design->grid.num_layers(), 4);
  EXPECT_TRUE(design->grid.is_horizontal(0));
  EXPECT_FALSE(design->grid.is_horizontal(1));
}

TEST(Ispd08Reader, CapacityDividedByPitch) {
  std::istringstream in(kSample);
  const auto design = read_ispd08(in, "sample");
  ASSERT_TRUE(design.has_value());
  // raw 12 / (width 1 + spacing 1) = 6 tracks.
  EXPECT_EQ(design->grid.edge_capacity(0, design->grid.h_edge_id(5, 5)), 6);
}

TEST(Ispd08Reader, PinToGcellConversion) {
  std::istringstream in(kSample);
  const auto design = read_ispd08(in, "sample");
  ASSERT_TRUE(design.has_value());
  ASSERT_EQ(design->nets.size(), 2u);
  const auto& netA = design->nets[0];
  EXPECT_EQ(netA.name, "netA");
  ASSERT_EQ(netA.pins.size(), 2u);
  EXPECT_EQ(netA.pins[0].x, 1);  // 15/10
  EXPECT_EQ(netA.pins[0].y, 1);
  EXPECT_EQ(netA.pins[1].x, 8);  // 85/10
  EXPECT_EQ(netA.pins[1].y, 2);
  // 1-based layer in file -> 0-based.
  EXPECT_EQ(design->nets[1].pins[2].layer, 1);
}

TEST(Ispd08Reader, AppliesAdjustments) {
  std::istringstream in(kSample);
  const auto design = read_ispd08(in, "sample");
  ASSERT_TRUE(design.has_value());
  // Adjustment "1 2 1  2 2 1  4": h-edge (1,2)-(2,2) on layer 0 -> cap 4.
  EXPECT_EQ(design->grid.edge_capacity(0, design->grid.h_edge_id(1, 2)), 4);
  // Adjustment on layer 1 (vertical): v-edge (3,3)-(3,4) -> cap 0.
  EXPECT_EQ(design->grid.edge_capacity(1, design->grid.v_edge_id(3, 3)), 0);
}

TEST(Ispd08Reader, RejectsMalformedHeader) {
  set_log_level(LogLevel::kSilent);
  std::istringstream in("not a benchmark\n");
  EXPECT_FALSE(read_ispd08(in, "bad").has_value());
  set_log_level(LogLevel::kInfo);
}

TEST(Ispd08Reader, RejectsTruncatedNets) {
  set_log_level(LogLevel::kSilent);
  std::string text(kSample);
  text = text.substr(0, text.find("netB"));
  std::istringstream in(text);
  EXPECT_FALSE(read_ispd08(in, "bad").has_value());
  set_log_level(LogLevel::kInfo);
}

// --- Structured diagnostics (parse_ispd08 / Status) ---------------------
//
// Every malformed input must produce StatusCode::kBadInput with the 1-based
// line number of the offending line — and must never crash or abort.

Status parse_status(const std::string& text) {
  std::istringstream in(text);
  auto result = parse_ispd08(in, "bad");
  EXPECT_FALSE(result.is_ok());
  return result.status();
}

TEST(Ispd08Diagnostics, MalformedGridHeader) {
  const Status s = parse_status("not a benchmark\n");
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_EQ(s.line(), 1);
}

TEST(Ispd08Diagnostics, NonNumericGridSizes) {
  const Status s = parse_status("grid ten 8 3\n");
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_EQ(s.line(), 1);
}

TEST(Ispd08Diagnostics, EmptyInput) {
  const Status s = parse_status("");
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_NE(s.message().find("grid"), std::string::npos);
}

TEST(Ispd08Diagnostics, WrongCapacityCount) {
  // 3-layer grid with only two vertical-capacity values: error on line 2.
  const Status s = parse_status("grid 8 8 3\nvertical capacity 0 10\n");
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_EQ(s.line(), 2);
}

TEST(Ispd08Diagnostics, NegativeLayerCapacity) {
  const Status s = parse_status("grid 8 8 3\nvertical capacity 0 -10 0\n");
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_EQ(s.line(), 2);
  EXPECT_NE(s.message().find("negative"), std::string::npos);
}

TEST(Ispd08Diagnostics, PinLayerOutOfRange) {
  std::string text(kSample);
  const auto pos = text.find("15 15 1");
  text.replace(pos, 7, "15 15 9");  // layer 9 of a 4-layer stack, line 11
  const Status s = parse_status(text);
  EXPECT_EQ(s.code(), StatusCode::kBadInput);
  EXPECT_EQ(s.line(), 11);
  EXPECT_NE(s.message().find("layer"), std::string::npos);
}

TEST(Ispd08Diagnostics, LegacyWrapperCollapsesToNullopt) {
  set_log_level(LogLevel::kSilent);
  std::istringstream in("grid 8 8 3\n");
  EXPECT_FALSE(read_ispd08(in, "bad").has_value());
  set_log_level(LogLevel::kInfo);
}

TEST(Ispd08Diagnostics, MissingFileIsAStatus) {
  const auto result = parse_ispd08_file("/nonexistent/benchmark.gr");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_NE(result.status().message().find("cannot open"), std::string::npos);
}

// Corpus files checked in under tests/parser/data/.
std::string data_path(const char* name) {
  return std::string(CPLA_TEST_DATA_DIR) + "/" + name;
}

TEST(Ispd08Corpus, TruncatedNetBlock) {
  const auto result = parse_ispd08_file(data_path("truncated_net.gr"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 14);  // EOF: one past the last line
  EXPECT_NE(result.status().message().find("netB"), std::string::npos);
}

TEST(Ispd08Corpus, NegativeAdjustmentCapacity) {
  const auto result = parse_ispd08_file(data_path("negative_capacity.gr"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 13);
  EXPECT_NE(result.status().message().find("negative capacity"), std::string::npos);
}

TEST(Ispd08Corpus, PinOutsideGridBounds) {
  const auto result = parse_ispd08_file(data_path("pin_out_of_bounds.gr"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 11);
  EXPECT_NE(result.status().message().find("outside"), std::string::npos);
}

TEST(Ispd08Corpus, PinCoordinateBeyondIntRange) {
  // Found by the input fuzz (tests/fuzz): the cell index was converted to
  // int before the range test, so a huge coordinate wrapped to INT_MIN and
  // the pin was accepted.
  const auto result = parse_ispd08_file(data_path("pin_coordinate_overflow.gr"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 11);
  EXPECT_NE(result.status().message().find("outside"), std::string::npos);
}

TEST(Ispd08Corpus, SwappedCapacityLinesAreRejected) {
  // Read by position alone, the swapped header lines would flip every
  // layer's direction.
  const auto result = parse_ispd08_file(data_path("swapped_capacity_lines.gr"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 2);
  EXPECT_NE(result.status().message().find("vertical capacity"), std::string::npos);
}

TEST(Ispd08Diagnostics, HeaderLineKeywordsAndValuesAreChecked) {
  const struct {
    const char* from;
    const char* to;
    int line;
  } cases[] = {
      {"vertical capacity", "vertical capacities", 2},
      {"horizontal capacity", "capacity horizontal", 3},
      {"minimum width", "minimum wid#h", 4},
      {"minimum spacing 1 1 1 1", "minimum spacing 1 1 x 1", 5},
      {"via spacing 1 1 1 1", "via spacing 1 1 1 1 1", 6},
      {"via spacing 1 1 1 1", "via", 6},
  };
  for (const auto& c : cases) {
    std::string text = kSample;
    text.replace(text.find(c.from), std::string(c.from).size(), c.to);
    const Status s = parse_status(text);
    EXPECT_EQ(s.code(), StatusCode::kBadInput) << c.to;
    EXPECT_EQ(s.line(), c.line) << c.to;
  }
}

TEST(Ispd08Corpus, CapacitySumsSaturateInsteadOfOverflowing) {
  // Two adjacent INT_MAX edges on layer 0, and an INT_MAX edge on the other
  // horizontal layer: the via-capacity and projected-capacity sums
  // overflowed int (UBSan under the asan preset; via_capacity read -20).
  const auto result = parse_ispd08_file(data_path("capacity_sum_overflow.gr"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const grid::GridGraph& g = result.value().grid;
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_EQ(g.via_capacity(0, 1, 0), kMax);
  EXPECT_EQ(g.projected_capacity_h(0, 0), kMax);
  // In-range sums are unchanged: 5 tracks per edge (10 / pitch 2).
  EXPECT_EQ(g.projected_capacity_h(2, 0), 10);
  const grid::GeomParams& geom = g.geom();
  const double via_pitch = geom.via_width + geom.via_spacing;
  EXPECT_EQ(g.via_capacity(0, 3, 1),
            static_cast<int>(std::floor((geom.wire_width + geom.wire_spacing) *
                                        geom.tile_width * 5 / (via_pitch * via_pitch))));
}

TEST(Ispd08Diagnostics, TileTooLargeForTheGrid) {
  // A tile whose grid extent overflows a double would let the writer emit
  // "inf" pin coordinates.
  std::string text = kSample;
  text.replace(text.find("0 0 10 10"), 9, "0 0 1e308 10");
  std::istringstream in(text);
  const auto result = parse_ispd08(in, "bad");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBadInput);
  EXPECT_EQ(result.status().line(), 7);
  EXPECT_NE(result.status().message().find("implausible tile"), std::string::npos);
}

TEST(Ispd08RoundTrip, WriterKeepsGeometryAndLayerDirections) {
  // A vertical layer whose edge 0 has no tracks must stay vertical, a
  // default whose pitch multiple overflows an int must still round-trip,
  // and the via-model geometry (width, spacing, via spacing, tile) must
  // come back unchanged: the header capacities are stated in pitch units.
  std::istringstream in(kSample);
  Result<grid::Design> parsed = parse_ispd08(in, "sample");
  ASSERT_TRUE(parsed.is_ok());
  grid::Design& original = parsed.value();
  original.grid.set_edge_capacity(1, 0, 0);
  ASSERT_FALSE(original.grid.is_horizontal(1));
  original.grid.set_edge_capacity(0, 0, std::numeric_limits<int>::max());

  std::stringstream buf;
  write_ispd08(original, buf);
  const auto reread = read_ispd08(buf, "sample");
  ASSERT_TRUE(reread.has_value());
  for (int l = 0; l < original.grid.num_layers(); ++l) {
    EXPECT_EQ(reread->grid.is_horizontal(l), original.grid.is_horizontal(l)) << l;
    for (int e = 0; e < original.grid.num_edges_on_layer(l); ++e) {
      ASSERT_EQ(reread->grid.edge_capacity(l, e), original.grid.edge_capacity(l, e)) << l;
    }
  }
  EXPECT_EQ(reread->grid.geom().wire_width, original.grid.geom().wire_width);
  EXPECT_EQ(reread->grid.geom().wire_spacing, original.grid.geom().wire_spacing);
  EXPECT_EQ(reread->grid.geom().via_spacing, original.grid.geom().via_spacing);
  EXPECT_EQ(reread->grid.geom().tile_width, original.grid.geom().tile_width);
}

TEST(Ispd08RoundTrip, WriteThenReadPreservesStructure) {
  // Generate a synthetic design, write it, read it back, compare.
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 16;
  spec.num_nets = 40;
  spec.num_layers = 4;
  spec.seed = 99;
  const grid::Design original = gen::generate(spec);

  std::stringstream buf;
  write_ispd08(original, buf);
  const auto reread = read_ispd08(buf, original.name);
  ASSERT_TRUE(reread.has_value());

  EXPECT_EQ(reread->grid.xsize(), original.grid.xsize());
  EXPECT_EQ(reread->grid.ysize(), original.grid.ysize());
  EXPECT_EQ(reread->grid.num_layers(), original.grid.num_layers());
  ASSERT_EQ(reread->nets.size(), original.nets.size());

  for (std::size_t n = 0; n < original.nets.size(); ++n) {
    ASSERT_EQ(reread->nets[n].pins.size(), original.nets[n].pins.size()) << n;
    for (std::size_t k = 0; k < original.nets[n].pins.size(); ++k) {
      EXPECT_EQ(reread->nets[n].pins[k].x, original.nets[n].pins[k].x);
      EXPECT_EQ(reread->nets[n].pins[k].y, original.nets[n].pins[k].y);
      EXPECT_EQ(reread->nets[n].pins[k].layer, original.nets[n].pins[k].layer);
    }
  }
  // Per-edge capacities preserved (via the adjustment mechanism).
  for (int l = 0; l < original.grid.num_layers(); ++l) {
    for (int e = 0; e < original.grid.num_edges_on_layer(l); ++e) {
      ASSERT_EQ(reread->grid.edge_capacity(l, e), original.grid.edge_capacity(l, e))
          << "layer " << l << " edge " << e;
    }
  }
}

}  // namespace
}  // namespace cpla::parser
