#include "src/sta/corner.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "src/timing/rc_table.hpp"
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

}  // namespace
}  // namespace cpla::sta
