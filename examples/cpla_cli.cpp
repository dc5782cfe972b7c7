// Command-line driver: the downstream-integration entry point. Runs the
// full pipeline on a generated suite benchmark or a real ISPD'08 file and
// emits the Table-2 metric row for the chosen flow. With --eco it switches
// to the incremental engine: the initial solve opens an EcoSession, then a
// line-based edit script streams deltas through it.
//
//   cpla_cli [options]
//     --bench <name>      suite benchmark to generate (default adaptec1)
//     --file <path>       parse an ISPD'08 .gr file instead of generating
//     --ratio <r>         critical-net ratio (default 0.005)
//     --engine <sdp|ilp|lagr|hybrid|tila>  optimizer (default sdp; hybrid
//                         picks per partition: Lagrangian for large or
//                         deadline-pressured partitions, SDP elsewhere)
//     --rounds <n>        max CPLA rounds (default 8)
//     --max-segs <n>      partition cap (default 10)
//     --eco <script>      ECO mode: apply an edit script incrementally
//     --sta               live STA: rounds re-select the released set from
//                         worst-over-corners slack (re-timing only in --eco)
//     --corners <path>    corner table (see sta::parse_corners); default is
//                         the single unscaled typical corner
//     --topk <k>          report the K most critical paths per corner
//     --required-time <t> release every net above the budget (slack-based
//                         selection) instead of the top --ratio fraction
//     --write-gr <path>   dump the (generated) benchmark in ISPD'08 syntax
//     --write-routes <p>  dump the routed solution (contest output format)
//     --validate          audit the solution with the independent checker
//     --quiet             warnings only
//
// ECO script format (one op per line, '#' comments):
//     capacity <layer> <x> <y> <cap>   set a directional edge's wire capacity
//     release <net>                    promote a net into the critical set
//     demote <net>                     drop a net from the critical set
//     reroute <net>                    flip the net's two-segment L
//     add <x1> <y1> <x2> <y2>          new 2-pin net (virtual: not in the
//                                      design netlist, so --write-routes and
//                                      --validate are skipped after one)
//     remove <net>                     delete a net added earlier
//     resolve [<deadline_ms>]          incremental re-optimization
// A trailing resolve is implied when the script ends with pending edits.
// A token after an op's fields that is not a '#' comment is an error.

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench/harness.hpp"
#include "examples/common.hpp"
#include "src/assign/route_io.hpp"
#include "src/assign/validate.hpp"
#include "src/eco/eco_session.hpp"
#include "src/parser/ispd08.hpp"
#include "src/serve/protocol.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"

namespace {

using cpla::examples::arg_value;
using cpla::examples::has_flag;
using cpla::examples::int_arg;
using cpla::examples::number_arg;

constexpr char kUsage[] =
    "usage: cpla_cli [--bench NAME | --file PATH] [--ratio R]\n"
    "                [--engine sdp|ilp|lagr|hybrid|tila]\n"
    "                [--rounds N] [--max-segs N]\n"
    "                [--eco SCRIPT] [--sta] [--corners PATH]\n"
    "                [--topk K] [--required-time T] [--write-gr PATH]\n"
    "                [--write-routes PATH] [--validate] [--quiet]\n";

/// Streams one edit-script line into the session. Returns false (with a
/// message) on a malformed line or a rejected delta. The grammar is
/// serve::parse_request — the same parser the ECO socket server speaks, so
/// a script that works here replays verbatim against a live server.
bool apply_script_line(const std::string& line, int lineno, cpla::eco::EcoSession* session,
                       int* pending, double* resolve_s) {
  using namespace cpla;
  auto fail = [&](const char* why) {
    std::fprintf(stderr, "eco script line %d: %s: %s\n", lineno, why, line.c_str());
    return false;
  };

  const Result<serve::Request> parsed = serve::parse_request(line);
  if (!parsed.is_ok()) return fail(parsed.status().message().c_str());
  const serve::Request& req = parsed.value();

  if (req.kind == serve::RequestKind::kEmpty) return true;  // blank or comment
  if (req.kind == serve::RequestKind::kResolve) {
    WallTimer timer;
    eco::ResolveOptions ro;
    ro.deadline_ms = req.deadline_ms;
    session->resolve(ro);
    *resolve_s += timer.seconds();
    *pending = 0;
    return true;
  }
  // Script mode has no journal: a durability barrier is a no-op here.
  if (req.kind == serve::RequestKind::kSync) return true;
  if (!serve::is_edit(req.kind)) return fail("server-only op in a script");

  Result<eco::Delta> delta = serve::materialize(req, session->state());
  if (!delta.is_ok()) return fail(delta.status().message().c_str());
  const Result<int> r = session->apply(delta.take());
  if (!r.is_ok()) return fail(r.status().message().c_str());
  ++*pending;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpla;

  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (has_flag(argc, argv, "--quiet")) set_log_level(LogLevel::kWarn);

  // Every flag, numeric value, the benchmark name and the engine are
  // checked here, before any design is read or prepared; a bad one exits 2
  // with the usage line.
  examples::check_flags(argc, argv,
                        {"--bench", "--file", "--ratio", "--engine", "--rounds", "--max-segs",
                         "--eco", "--corners", "--topk", "--required-time", "--write-gr",
                         "--write-routes"},
                        {"--sta", "--validate", "--quiet"}, kUsage);
  const double ratio = number_arg(argc, argv, "--ratio", 0.005, 0.0, 1.0, false, kUsage);
  const int max_rounds =
      int_arg(argc, argv, "--rounds", core::CplaOptions{}.max_rounds, 0, INT_MAX, kUsage);
  const int max_segments = int_arg(argc, argv, "--max-segs",
                                   core::PartitionOptions{}.max_segments, 1, INT_MAX, kUsage);
  const int topk = int_arg(argc, argv, "--topk", 0, 0, INT_MAX, kUsage);
  const char* required = arg_value(argc, argv, "--required-time");
  const double required_time =
      number_arg(argc, argv, "--required-time", 0.0, 0.0, HUGE_VAL, false, kUsage);

  const char* file = arg_value(argc, argv, "--file");
  const std::string bench = examples::suite_name(
      arg_value(argc, argv, "--bench") ? arg_value(argc, argv, "--bench") : "adaptec1", kUsage);
  const std::string engine =
      arg_value(argc, argv, "--engine") ? arg_value(argc, argv, "--engine") : "sdp";
  core::CplaOptions cpla_opt;
  if (engine == "ilp") {
    cpla_opt.engine = core::Engine::kIlp;
  } else if (engine == "lagr") {
    cpla_opt.engine = core::Engine::kLagr;
  } else if (engine == "hybrid") {
    cpla_opt.engine = core::Engine::kHybrid;
  } else if (engine != "sdp" && engine != "tila") {
    std::fprintf(stderr, "error: unknown --engine '%s' (sdp|ilp|lagr|hybrid|tila)\n%s",
                 engine.c_str(), kUsage);
    return 2;
  }
  const char* eco_script = arg_value(argc, argv, "--eco");
  if (eco_script != nullptr && engine == "tila") {
    std::fprintf(stderr,
                 "error: --eco drives the CPLA flow (use --engine sdp|ilp|lagr|hybrid)\n");
    return 1;
  }

  std::optional<grid::Design> design;
  if (file != nullptr) {
    design = parser::read_ispd08_file(file);
    if (!design) {
      std::fprintf(stderr, "error: cannot parse %s\n", file);
      return 1;
    }
  } else {
    design = gen::generate_suite(bench);
  }
  if (const char* out = arg_value(argc, argv, "--write-gr")) {
    if (!parser::write_ispd08_file(*design, out)) return 1;
    std::printf("wrote %s\n", out);
  }

  core::Prepared prep = core::prepare(std::move(*design));
  cpla_opt.max_rounds = max_rounds;
  cpla_opt.partition.max_segments = max_segments;
  // Live STA: build the multi-corner graph once up front; with --sta the
  // flow re-times it incrementally every round and re-selects the released
  // set from live slack. --topk/--corners alone still buy the report.
  const bool sta_mode = has_flag(argc, argv, "--sta");
  const char* corners_file = arg_value(argc, argv, "--corners");
  std::optional<sta::CornerSet> corner_set;
  sta::TimingGraph sta_graph;
  if (sta_mode || topk > 0 || corners_file != nullptr) {
    std::vector<sta::RcCorner> corners;
    if (corners_file != nullptr) {
      Result<std::vector<sta::RcCorner>> parsed = sta::parse_corners_file(corners_file);
      if (!parsed.is_ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.status().to_string().c_str());
        return 1;
      }
      corners = parsed.take();
    }
    corner_set = corners.empty() ? sta::CornerSet::single(*prep.rc)
                                 : sta::CornerSet(*prep.rc, std::move(corners));
    sta_graph.build(*prep.state, *corner_set);
    // In ECO mode the session owns rediscovery policy; the graph rides
    // along for re-timing + reporting only (attached below).
    if (sta_mode && eco_script == nullptr) cpla_opt.sta_graph = &sta_graph;
  }

  examples::MetricTable table;
  bool virtual_nets = false;  // ECO-added nets are absent from the netlist

  if (eco_script != nullptr) {
    // ECO mode: initial solve opens the session, the script streams deltas.
    std::ifstream script(eco_script);
    if (!script) {
      std::fprintf(stderr, "error: cannot open eco script %s\n", eco_script);
      return 1;
    }
    eco::EcoOptions opt;
    opt.flow = cpla_opt;
    opt.critical_ratio = ratio;
    eco::EcoSession session(prep.design.get(), prep.state.get(), prep.rc.get(), opt);
    if (corner_set) session.attach_sta(&sta_graph);
    table.add("initial", core::compute_metrics(*prep.state, *prep.rc, session.critical()), 0.0);

    WallTimer entry_timer;
    session.resolve();
    table.add(engine + " (entry)",
              core::compute_metrics(*prep.state, *prep.rc, session.critical()),
              entry_timer.seconds());

    std::string line;
    int lineno = 0, pending = 0;
    double resolve_s = 0.0;
    while (std::getline(script, line)) {
      if (!apply_script_line(line, ++lineno, &session, &pending, &resolve_s)) return 1;
    }
    if (pending > 0) {  // implied trailing resolve
      WallTimer timer;
      session.resolve();
      resolve_s += timer.seconds();
    }

    table.add("eco (final)", core::compute_metrics(*prep.state, *prep.rc, session.critical()),
              resolve_s);
    table.print();
    const eco::EcoStats s = session.stats();
    std::printf(
        "eco: %ld deltas, %ld resolves (%ld fallbacks), %ld partitions looked up: "
        "cache %ld hits / %ld misses\n",
        s.deltas_applied, s.resolves, s.fallbacks, s.clean_partitions, s.cache_hits,
        s.cache_misses);
    virtual_nets = prep.state->num_nets() != static_cast<int>(prep.design->nets.size());
  } else {
    // Entry selection: slack budget (--required-time) beats live-STA slack
    // ranking (--sta) beats the paper's Elmore-delay top fraction.
    core::CriticalSet critical;
    if (required != nullptr) {
      critical = core::select_by_budget(*prep.state, *prep.rc, required_time);
      std::printf("budget: released %zu nets above required time %s\n", critical.nets.size(),
                  required);
    } else if (corner_set) {
      critical = core::select_critical(*prep.state, sta_graph, ratio);
    } else {
      critical = core::select_critical(*prep.state, *prep.rc, ratio);
    }
    table.add("initial", core::compute_metrics(*prep.state, *prep.rc, critical), 0.0);

    WallTimer timer;
    if (engine == "tila") {
      core::run_tila(prep.state.get(), *prep.rc, critical);
    } else {
      core::run_cpla(prep.state.get(), *prep.rc, critical, cpla_opt);
    }
    table.add(engine, core::compute_metrics(*prep.state, *prep.rc, critical), timer.seconds());
    table.print();
  }

  if (corner_set) {
    sta_graph.update(*prep.state);  // sync with the landed state
    std::printf("sta: %d corner%s, %d nodes, %d edges, %d levels, worst slack %.4f\n",
                corner_set->size(), corner_set->size() == 1 ? "" : "s", sta_graph.num_nodes(),
                sta_graph.num_edges(), sta_graph.num_levels(), sta_graph.worst_slack());
    for (int c = 0; c < corner_set->size() && topk > 0; ++c) {
      std::printf("sta: corner %s (required %.4f), top-%d paths:\n",
                  corner_set->corner(c).name.c_str(), sta_graph.corner_required(c), topk);
      const std::vector<sta::TimingPath> paths = sta_graph.report_top_k_paths(c, topk);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const sta::TimingPath& p = paths[i];
        std::string stages;
        for (const int v : p.nodes) {
          if (sta_graph.kind(v) != sta::NodeKind::kDriver) continue;
          if (!stages.empty()) stages += " -> ";
          stages += "net" + std::to_string(sta_graph.node_net(v));
        }
        const int last = p.nodes.back();
        std::printf("  #%zu slack %.4f delay %.4f  %s (sink %d of net %d)\n", i + 1, p.slack,
                    p.delay, stages.c_str(), sta_graph.node_sink(last),
                    sta_graph.node_net(last));
      }
    }
  }

  if (virtual_nets &&
      (arg_value(argc, argv, "--write-routes") || has_flag(argc, argv, "--validate"))) {
    std::fprintf(stderr,
                 "warning: eco script added nets outside the design netlist; "
                 "skipping --write-routes/--validate\n");
  }
  if (const char* out = arg_value(argc, argv, "--write-routes"); out != nullptr && !virtual_nets) {
    if (!assign::write_routes_file(*prep.state, out)) return 1;
    std::printf("wrote routed solution to %s\n", out);
  }
  if (has_flag(argc, argv, "--validate") && !virtual_nets) {
    std::stringstream buf;
    assign::write_routes(*prep.state, buf);
    const auto parsed = assign::read_routes(buf, prep.design->grid);
    if (!parsed) {
      std::fprintf(stderr, "validate: solution unparsable\n");
      return 1;
    }
    const assign::ValidationReport report =
        assign::validate_solution(*prep.design, *parsed);
    std::printf("validate: %s — wirelength %ld, vias %ld, wire_ov %ld, via_ov %ld\n",
                report.ok ? "OK" : "FAILED", report.total_wirelength, report.total_vias,
                report.wire_overflow, report.via_overflow);
    for (const auto& err : report.errors) std::printf("  error: %s\n", err.c_str());
    if (!report.ok) return 1;
  }
  return 0;
}
