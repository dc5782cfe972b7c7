// Backend harness: runs the same instance through the three engines
// (Engine::kSdp, kLagr and the per-partition kHybrid) from identical
// initial assignments and reports each one's quality-vs-wall-clock point,
// plus a deadline-pressured pair showing kHybrid's second routing axis. The
// partition cap is raised well above the flow default so the instance
// actually contains partitions on both sides of the hybrid size cutoff —
// that is the regime kHybrid exists for (the lifted SDP's dense dimension
// grows with vars; the sub-gradient sweep stays linear).
//
// Flags beyond the common harness set (bench/harness.hpp):
//   --gate <wall_ratio>   exit nonzero unless the *deadline-pressured*
//                         hybrid run dominates the deadline-pressured
//                         SDP-only run: avg_tcp no worse (0.1% tolerance)
//                         AND wall-clock <= SDP-only * wall_ratio. CI uses
//                         1.0. The deadline is derived from the measured
//                         SDP per-solve time (mean/4), so the pressure —
//                         and with it the gate's premise — holds on any
//                         machine speed: the above-mean lifted SDPs blow
//                         the budget and degrade to keep-current, while
//                         kHybrid routes those partitions to the
//                         sub-gradient sweep, which always lands a valid
//                         pick inside it. The gate lives in-binary because
//                         bench_compare.py's one-sided bigger-is-worse
//                         rule cannot express a cross-phase frontier
//                         condition.
//
// Every landed state is checked independently (bench::check_landed_state);
// the artifact records validated = 1, and any failure exits nonzero. Each
// row's `sdp_chosen` / `lagr_chosen` are the solves its partitions ran on
// each engine (GuardStats::engine_used).
//
// The no-deadline trio is report-only: it maps the frontier (Lagrangian
// ~100x faster at a few percent quality cost, hybrid in between), but
// without deadline pressure the SDP tier is never the wrong tool, so
// "no worse AND no slower" is not the claim being made there.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "bench/harness.hpp"

namespace {

using namespace cpla;

struct ModeOutcome {
  bench::FlowOutcome flow;
  core::GuardStats guard;
  std::string invalid;  // empty when the landed state checks out
};

ModeOutcome run_mode(bench::BenchRun* run, const core::CplaOptions& opt) {
  run->restore();
  WallTimer timer;
  core::CplaResult res =
      core::run_cpla(run->prepared.state.get(), *run->prepared.rc, run->critical, opt);
  ModeOutcome out;
  out.flow.seconds = timer.seconds();
  out.flow.metrics =
      core::compute_metrics(*run->prepared.state, *run->prepared.rc, run->critical);
  out.guard = res.guard_stats;
  out.invalid = bench::check_landed_state(run->prepared, run->critical, out.flow.metrics);
  return out;
}

long solves_on(const ModeOutcome& out, core::Engine engine) {
  return out.guard.engine_used[static_cast<int>(engine)];
}

void record_mode(bench::BenchReport* report, const std::string& name, const ModeOutcome& out) {
  report->record_flow(name, out.flow);
  report->record_value(name + ".wire_overflow", static_cast<double>(out.flow.metrics.wire_overflow));
  report->record_value(name + ".sdp_chosen",
                       static_cast<double>(solves_on(out, core::Engine::kSdp)));
  report->record_value(name + ".lagr_chosen",
                       static_cast<double>(solves_on(out, core::Engine::kLagr)));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  double gate = 0.0;  // 0 = report only
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], "--gate") == 0 && r + 1 < argc) {
      gate = std::strtod(argv[++r], nullptr);
    }
  }

  // Quick mode shrinks the instance but keeps the released set dense
  // enough that the deadline-pressured hybrid still routes partitions to
  // the Lagrangian engine (otherwise it degenerates to SDP-only and the
  // gate proves nothing; the lagr_chosen count below makes that visible
  // either way).
  bench::BenchRun run = args.quick
                            ? [&] {
                                gen::SynthSpec spec = gen::suite_spec("newblue1");
                                spec.xsize = spec.ysize = 32;
                                spec.num_nets = 700;
                                spec.seed += (args.seed - 1) * 0x9e3779b97f4a7c15ull;
                                return bench::make_run_spec(std::move(spec), /*ratio=*/0.02);
                              }()
                            : bench::make_run("newblue1", /*ratio=*/0.01, args.seed);

  core::CplaOptions base;
  base.partition.max_segments = 64;
  base.max_rounds = args.quick ? 2 : 8;

  core::CplaOptions sdp_opt = base;  // engine defaults to kSdp

  core::CplaOptions lagr_opt = base;
  lagr_opt.engine = core::Engine::kLagr;

  core::CplaOptions hybrid_opt = base;
  hybrid_opt.engine = core::Engine::kHybrid;

  const ModeOutcome sdp = run_mode(&run, sdp_opt);
  const ModeOutcome lagr = run_mode(&run, lagr_opt);
  const ModeOutcome hybrid = run_mode(&run, hybrid_opt);

  // Deadline pressure: a per-solve budget at a quarter of the measured
  // mean SDP solve time. The size distribution is heavy-tailed, so the big
  // lifted SDPs (many times the mean) blow the budget on any machine and
  // escalate — often to keep-current. Hybrid routes every partition of
  // 12 or more vars to the Lagrangian sweep instead, which
  // always lands a valid pick inside the budget.
  const long sdp_solves = std::max(1L, sdp.guard.solves);
  const double deadline_ms =
      std::max(1.0, sdp.flow.seconds * 1e3 / static_cast<double>(sdp_solves) / 4.0);
  core::CplaOptions sdp_dl = sdp_opt;
  sdp_dl.guard.deadline_ms = deadline_ms;
  core::CplaOptions hybrid_dl = hybrid_opt;
  hybrid_dl.guard.deadline_ms = deadline_ms;
  const ModeOutcome sdp_deadline = run_mode(&run, sdp_dl);
  const ModeOutcome hybrid_deadline = run_mode(&run, hybrid_dl);

  std::printf("backend   Avg(Tcp)    Max(Tcp)   wire_ov  wall(s)  sdp/lagr chosen\n");
  std::printf("-----------------------------------------------------------------\n");
  auto row = [](const char* name, const ModeOutcome& m) {
    std::printf("%-9s %10.1f %10.1f %8ld %8.2f  %ld/%ld\n", name, m.flow.metrics.avg_tcp,
                m.flow.metrics.max_tcp, m.flow.metrics.wire_overflow, m.flow.seconds,
                solves_on(m, core::Engine::kSdp), solves_on(m, core::Engine::kLagr));
  };
  row("sdp", sdp);
  row("lagr", lagr);
  row("hybrid", hybrid);
  row("sdp+dl", sdp_deadline);
  row("hyb+dl", hybrid_deadline);

  bool validated = true;
  for (const auto& [name, mode] : {std::pair{"sdp", &sdp}, {"lagr", &lagr}, {"hybrid", &hybrid},
                                   {"sdp_deadline", &sdp_deadline},
                                   {"hybrid_deadline", &hybrid_deadline}}) {
    if (mode->invalid.empty()) continue;
    std::fprintf(stderr, "backend_arbiter: FAIL %s: %s\n", name, mode->invalid.c_str());
    validated = false;
  }

  bench::BenchReport report("backend_arbiter", args);
  record_mode(&report, "sdp", sdp);
  record_mode(&report, "lagr", lagr);
  record_mode(&report, "hybrid", hybrid);
  record_mode(&report, "sdp_deadline", sdp_deadline);
  record_mode(&report, "hybrid_deadline", hybrid_deadline);
  report.record_value("deadline_ms", deadline_ms);
  report.record_value("validated", validated ? 1.0 : 0.0);
  if (!report.write() || !validated) return 1;

  if (gate > 0.0) {
    bool ok = true;
    if (solves_on(hybrid_deadline, core::Engine::kLagr) == 0) {
      std::fprintf(stderr,
                   "backend_arbiter: FAIL hybrid routed nothing to lagr — the instance has "
                   "no partitions above the threshold, the gate would be vacuous\n");
      ok = false;
    }
    if (hybrid_deadline.flow.metrics.avg_tcp > sdp_deadline.flow.metrics.avg_tcp * 1.001) {
      std::fprintf(stderr,
                   "backend_arbiter: FAIL deadline-pressured hybrid avg_tcp %.1f worse than "
                   "sdp %.1f\n",
                   hybrid_deadline.flow.metrics.avg_tcp, sdp_deadline.flow.metrics.avg_tcp);
      ok = false;
    }
    if (hybrid_deadline.flow.seconds > sdp_deadline.flow.seconds * gate) {
      std::fprintf(stderr,
                   "backend_arbiter: FAIL deadline-pressured hybrid wall %.2fs above gate "
                   "(%.2f x sdp %.2fs)\n",
                   hybrid_deadline.flow.seconds, gate, sdp_deadline.flow.seconds);
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}
