// Incremental STA headline bench: replay a stream of small-cone layer
// deltas (one net's assignment flips per step) against a routed design and
// time TimingGraph::update() against a from-scratch build() on the same
// state, insisting — at every step — that the two graphs agree bitwise on
// every arrival/required/slack at every corner, and that the top-K path
// report matches (the registered determinism contract, exercised at bench
// scale). Reports the aggregate incremental-vs-scratch speedup and the
// top-K extraction cost for K in {1, 8, 64}.
//
// The final mutated state is then checked by code that did not produce it:
// the independent validator (assign::validate_solution) over every net's
// wires, whose wire overflow must equal the state's running total, and a
// from-scratch Elmore recomputation of every net arc at every corner, which
// must equal the live graph's edge delays bitwise. The artifact records
// validated = 1.
//
// Exit status: nonzero when any step diverges bitwise or the final state
// fails its independent checks (always), or when
// the incremental speedup falls below the --gate floor (default 5x, full
// mode only; --quick is too small to gate). The floor lives in-binary for
// the same reason backend_arbiter's does: bench_compare.py's bigger-is-worse
// rule cannot express "this derived ratio must stay above X".
//
// Usage: sta_incremental [--quick] [--gate X] [--seed N] [--metrics-out FILE]

#include "bench/harness.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/path_enum.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/rng.hpp"

#include <cmath>
#include <cstring>
#include <vector>

namespace {

using namespace cpla;

bool bits_equal(double a, double b) { return a == b && std::signbit(a) == std::signbit(b); }

// Full bitwise comparison of the two graphs' timing arrays; returns the
// number of disagreeing (corner, node, quantity) entries.
long diff_graphs(const sta::TimingGraph& a, const sta::TimingGraph& b) {
  if (a.num_corners() != b.num_corners() || a.num_nodes() != b.num_nodes()) return 1L << 30;
  long mismatches = 0;
  for (int c = 0; c < a.num_corners(); ++c) {
    if (!bits_equal(a.corner_required(c), b.corner_required(c))) ++mismatches;
    for (int v = 0; v < a.num_nodes(); ++v) {
      if (!bits_equal(a.arrival(c, v), b.arrival(c, v))) ++mismatches;
      if (!bits_equal(a.required(c, v), b.required(c, v))) ++mismatches;
      if (!bits_equal(a.slack(c, v), b.slack(c, v))) ++mismatches;
    }
  }
  for (int v = 0; v < a.num_nodes(); ++v) {
    if (!bits_equal(a.worst_slack(v), b.worst_slack(v))) ++mismatches;
  }
  return mismatches;
}

// One small-cone delta: re-assign a few segments of one routed net.
void mutate_one_net(assign::AssignState* state, Rng* rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int n = static_cast<int>(rng->uniform_int(0, state->num_nets() - 1));
    const route::SegTree& tree = state->tree(n);
    if (tree.segs.empty()) continue;
    std::vector<int> layers = state->layers(n);
    bool touched = false;
    for (std::size_t s = 0; s < layers.size(); ++s) {
      if (!rng->chance(0.5)) continue;
      const std::vector<int>& allowed = state->allowed_layers(tree.segs[s].horizontal);
      const int pick = allowed[static_cast<std::size_t>(
          rng->uniform_int(0, static_cast<int>(allowed.size()) - 1))];
      touched = touched || pick != layers[s];
      layers[s] = pick;
    }
    if (!touched) continue;
    state->set_layers(n, std::move(layers));
    return;
  }
}

/// Independent checks of the final state (see the header comment); returns
/// an empty string when they hold, else the first failure.
std::string check_final_state(const core::Prepared& run, const sta::TimingGraph& live,
                              const sta::CornerSet& corners) {
  const assign::ValidationReport report = bench::validate_landed(run);
  if (!report.ok) {
    return "validator: " +
           (report.errors.empty() ? std::string("rejected the solution") : report.errors.front());
  }
  if (report.wire_overflow != run.state->wire_overflow()) {
    return "validator wire overflow " + std::to_string(report.wire_overflow) +
           " != state's " + std::to_string(run.state->wire_overflow());
  }
  for (int net = 0; net < run.state->num_nets(); ++net) {
    if (!live.has_net(net)) continue;
    const route::SegTree& tree = run.state->tree(net);
    const int first_edge = live.out_edge_begin(live.driver_node(net));
    for (int c = 0; c < corners.size(); ++c) {
      const timing::NetTiming fresh =
          timing::compute_timing(tree, run.state->layers(net), corners.rc(c));
      for (std::size_t k = 0; k < fresh.sink_delay.size(); ++k) {
        const double graph_delay = live.edge_delay(c, first_edge + static_cast<int>(k));
        if (!bits_equal(fresh.sink_delay[k], graph_delay)) {
          return "net " + std::to_string(net) + " sink " + std::to_string(k) + " corner " +
                 std::to_string(c) + ": graph delay differs from a fresh Elmore recomputation";
        }
      }
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("sta_incremental", args);
  set_log_level(LogLevel::kWarn);

  double gate = 5.0;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = std::atof(argv[i + 1]);
  }

  const int num_deltas = args.quick ? 12 : 60;
  std::printf("=== STA: incremental update vs from-scratch build (%d deltas) ===\n\n",
              num_deltas);

  gen::SynthSpec spec;
  spec.name = "sta";
  spec.xsize = spec.ysize = args.quick ? 24 : 40;
  spec.num_nets = args.quick ? 300 : 1200;
  spec.num_layers = 6;
  spec.seed = 19 + (args.seed - 1) * 0x9e3779b97f4a7c15ull;
  core::Prepared run = core::prepare(gen::generate(spec));

  const std::vector<sta::RcCorner> corners = {
      sta::RcCorner{"slow", 1.25, 1.15, 1.1, -1.0},
      sta::RcCorner{"typ", 1.0, 1.0, 1.0, -1.0},
      sta::RcCorner{"fast", 0.85, 0.9, 0.95, -1.0},
  };
  const sta::CornerSet corner_set(*run.rc, corners);

  sta::TimingGraph live;
  {
    WallTimer timer;
    live.build(*run.state, corner_set);
    report.record_phase("sta.initial_build", timer.seconds() * 1e3);
  }
  std::printf("graph: %d corners, %d nodes, %d edges, %d levels\n", live.num_corners(),
              live.num_nodes(), live.num_edges(), live.num_levels());

  Rng rng(0xC0FFEEull + args.seed);
  double inc_s = 0.0, scratch_s = 0.0;
  long mismatches = 0, path_mismatches = 0;
  long dirty_nodes_total = 0;
  for (int i = 0; i < num_deltas; ++i) {
    mutate_one_net(run.state.get(), &rng);
    {
      WallTimer timer;
      live.update(*run.state);
      inc_s += timer.seconds();
    }
    dirty_nodes_total += live.stats().dirty_nodes;

    sta::TimingGraph scratch;
    {
      WallTimer timer;
      scratch.build(*run.state, corner_set);
      scratch_s += timer.seconds();
    }
    mismatches += diff_graphs(live, scratch);

    // The path report must agree too (it reads the same slack arrays).
    const std::vector<sta::TimingPath> a = live.report_top_k_paths(0, 8);
    const std::vector<sta::TimingPath> b = scratch.report_top_k_paths(0, 8);
    if (a.size() != b.size()) {
      ++path_mismatches;
    } else {
      for (std::size_t p = 0; p < a.size(); ++p) {
        if (a[p].nodes != b[p].nodes || !bits_equal(a[p].slack, b[p].slack)) ++path_mismatches;
      }
    }
    if ((i + 1) % 20 == 0) std::printf("  %d/%d deltas replayed\n", i + 1, num_deltas);
  }
  const double speedup = inc_s > 0.0 ? scratch_s / inc_s : 0.0;

  // Top-K extraction cost on the final graph.
  double topk_ms[3] = {0.0, 0.0, 0.0};
  const int kvals[3] = {1, 8, 64};
  for (int j = 0; j < 3; ++j) {
    WallTimer timer;
    const std::vector<sta::TimingPath> paths = live.report_top_k_paths(0, kvals[j]);
    topk_ms[j] = timer.seconds() * 1e3;
    report.record_value("sta.topk.k" + std::to_string(kvals[j]) + ".paths",
                        static_cast<double>(paths.size()));
  }

  Table table({"metric", "value"});
  table.add_row({"incremental total (s)", fmt_num(inc_s, 3)});
  table.add_row({"from-scratch total (s)", fmt_num(scratch_s, 3)});
  table.add_row({"speedup", fmt_num(speedup, 2) + "x"});
  table.add_row({"avg dirty nodes / delta", fmt_num(double(dirty_nodes_total) / num_deltas, 1)});
  table.add_row({"bitwise mismatches", std::to_string(mismatches)});
  table.add_row({"path mismatches", std::to_string(path_mismatches)});
  table.add_row({"worst slack", fmt_num(live.worst_slack(), 2)});
  table.add_row({"top-64 extract (ms)", fmt_num(topk_ms[2], 2)});
  table.print(stdout);

  report.record_phase("sta.update_total", inc_s * 1e3);
  report.record_phase("sta.scratch_total", scratch_s * 1e3);
  // Inverse speedup rides the phases section (same reasoning as
  // eco_incremental: wall-clock direction + machine noise, so CI's
  // --no-time skips it while local comparisons still gate it).
  report.record_phase("sta.inverse_speedup", speedup > 0.0 ? 1e3 / speedup : 1e9);
  report.record_phase("sta.topk.k1", topk_ms[0]);
  report.record_phase("sta.topk.k8", topk_ms[1]);
  report.record_phase("sta.topk.k64", topk_ms[2]);
  report.record_value("sta.bitwise_mismatches", static_cast<double>(mismatches));
  report.record_value("sta.path_mismatches", static_cast<double>(path_mismatches));
  report.record_value("sta.graph.num_nodes", static_cast<double>(live.num_nodes()));
  report.record_value("sta.graph.num_edges", static_cast<double>(live.num_edges()));
  report.record_value("sta.graph.num_levels", static_cast<double>(live.num_levels()));
  report.record_value("sta.final.worst_slack", live.worst_slack());

  const std::string invalid = check_final_state(run, live, corner_set);
  report.record_value("validated", invalid.empty() ? 1.0 : 0.0);
  if (!invalid.empty()) {
    std::fprintf(stderr, "sta_incremental: FAIL final state: %s\n", invalid.c_str());
    report.write();
    return 1;
  }
  if (mismatches > 0 || path_mismatches > 0) {
    std::fprintf(stderr,
                 "sta_incremental: FAIL - incremental update diverged "
                 "(%ld value, %ld path mismatches)\n",
                 mismatches, path_mismatches);
    report.write();
    return 1;
  }
  if (!args.quick && speedup < gate) {
    std::fprintf(stderr, "sta_incremental: FAIL - speedup %.2fx below the %.2fx floor\n",
                 speedup, gate);
    report.write();
    return 1;
  }
  return report.write() ? 0 : 1;
}
