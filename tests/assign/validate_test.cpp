#include "src/assign/validate.hpp"

#include <gtest/gtest.h>

#include "src/assign/initial_assign.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/grid/layer_stack.hpp"
#include "src/route/router.hpp"

namespace cpla::assign {
namespace {

struct Fixture {
  grid::Design design;
  Fixture() : design("t", make_grid()) {
    grid::Net net;
    net.id = 0;
    net.name = "n0";
    net.pins = {grid::Pin{1, 1, 0}, grid::Pin{5, 1, 0}};
    design.nets.push_back(net);
  }
  static grid::GridGraph make_grid() {
    grid::GridGraph g(12, 12, grid::make_layer_stack(4), grid::default_geom());
    for (int l = 0; l < 4; ++l) g.fill_layer_capacity(l, 4);
    return g;
  }
};

RoutedNet simple_net() {
  RoutedNet net;
  net.name = "n0";
  net.id = 0;
  // Pin via up, wire across on layer 0 (horizontal), nothing else needed
  // since both pins are on layer 0 == wire layer.
  net.wires.push_back(Wire3D{1, 1, 0, 5, 1, 0});
  return net;
}

TEST(Validate, AcceptsLegalSolution) {
  Fixture f;
  const ValidationReport r = validate_solution(f.design, {simple_net()});
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.total_wirelength, 4);
  EXPECT_EQ(r.wire_overflow, 0);
}

TEST(Validate, DetectsOpenNet) {
  Fixture f;
  RoutedNet net = simple_net();
  net.wires[0].x2 = 4;  // stops one cell short of the pin at x=5
  const ValidationReport r = validate_solution(f.design, {net});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("pin"), std::string::npos);
}

TEST(Validate, DetectsWrongDirectionLayer) {
  Fixture f;
  RoutedNet net = simple_net();
  net.wires[0].l1 = net.wires[0].l2 = 1;  // layer 1 is vertical
  net.wires.push_back(Wire3D{1, 1, 0, 1, 1, 1});  // pin vias so pins exist
  net.wires.push_back(Wire3D{5, 1, 0, 5, 1, 1});
  const ValidationReport r = validate_solution(f.design, {net});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("horizontal wire on vertical layer"), std::string::npos);
}

TEST(Validate, DetectsDiagonalAndZeroLengthWires) {
  Fixture f;
  RoutedNet net = simple_net();
  net.wires.push_back(Wire3D{1, 1, 0, 2, 2, 0});  // diagonal
  EXPECT_FALSE(validate_solution(f.design, {net}).ok);

  RoutedNet net2 = simple_net();
  net2.wires.push_back(Wire3D{9, 9, 2, 9, 9, 2});  // zero length
  EXPECT_FALSE(validate_solution(f.design, {net2}).ok);
}

TEST(Validate, DetectsOutOfGridWire) {
  Fixture f;
  RoutedNet net = simple_net();
  net.wires.push_back(Wire3D{10, 1, 0, 15, 1, 0});
  EXPECT_FALSE(validate_solution(f.design, {net}).ok);
}

TEST(Validate, ViaStackConnectsLayers) {
  Fixture f;
  f.design.nets[0].pins[1] = grid::Pin{1, 5, 0};  // L-shaped net now
  RoutedNet net;
  net.name = "n0";
  net.id = 0;
  net.wires.push_back(Wire3D{1, 1, 0, 1, 1, 1});  // via 0->1 at source
  net.wires.push_back(Wire3D{1, 1, 1, 1, 5, 1});  // vertical wire on layer 1
  net.wires.push_back(Wire3D{1, 5, 1, 1, 5, 0});  // via down at sink
  const ValidationReport r = validate_solution(f.design, {net});
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.total_vias, 2);
}

TEST(Validate, CountsWireOverflow) {
  Fixture f;
  // Capacity 4 on layer 0; six identical wires through the same edges.
  std::vector<RoutedNet> nets;
  for (int i = 0; i < 6; ++i) {
    RoutedNet net = simple_net();
    nets.push_back(net);
  }
  // All six claim net id 0; geometry-wise that's allowed for the audit.
  const ValidationReport r = validate_solution(f.design, nets);
  EXPECT_TRUE(r.ok);                     // no opens, just congestion
  EXPECT_EQ(r.wire_overflow, 2 * 4);     // 2 extra wires on each of 4 edges
}

/// The synthetic design the end-to-end audits run on.
gen::SynthSpec audit_spec() {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 150;
  spec.num_layers = 6;
  spec.seed = 93;
  return spec;
}

/// write_routes -> read_routes -> validate: the external audit must agree
/// with the state's internal bookkeeping.
void expect_audit_matches_state(const grid::Design& d, const AssignState& state) {
  std::stringstream buf;
  write_routes(state, buf);
  const auto parsed = read_routes(buf, d.grid);
  ASSERT_TRUE(parsed.has_value());
  const ValidationReport r = validate_solution(d, *parsed);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.wire_overflow, state.wire_overflow());
  EXPECT_EQ(r.via_overflow, state.via_overflow());
  EXPECT_EQ(r.total_vias, state.via_count());
}

TEST(Validate, EndToEndAgainstInternalState) {
  // Full pipeline -> audit, right after the initial assignment.
  const grid::Design d = gen::generate(audit_spec());
  route::RoutingResult rr = route::route_all(d);
  std::vector<route::SegTree> trees;
  for (std::size_t n = 0; n < d.nets.size(); ++n) {
    trees.push_back(route::extract_tree(d.grid, d.nets[n], &rr.routes[n]));
  }
  AssignState state(&d, std::move(trees));
  initial_assign(&state);
  expect_audit_matches_state(d, state);
}

TEST(Validate, EndToEndAfterOptimize) {
  // The same audit after the full flow: victim displacement, transactional
  // commits and rollbacks have all moved the state's running totals.
  core::Prepared bench = core::prepare(gen::generate(audit_spec()));
  core::CplaOptions options;
  options.critical_ratio = 0.05;
  options.max_rounds = 2;
  options.parallel = false;
  const core::OptimizeResult out = core::optimize(bench.state.get(), *bench.rc, options);
  ASSERT_TRUE(out.status.is_ok());
  ASSERT_GT(out.result.partitions_solved, 0);
  expect_audit_matches_state(*bench.design, *bench.state);
}

}  // namespace
}  // namespace cpla::assign
