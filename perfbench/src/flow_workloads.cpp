// flow_sdp and flow_lagr_sta: the paper's flow (core::prepare ->
// select_critical -> core::optimize) on a set of design variants, each
// optimized from its entry state, cycling through the set until the run's
// time is up. Every optimize is checked: status, bit-exact Table-2 values
// against a from-scratch Elmore recomputation, never-worse against the
// entry state, and determinism across repeats; the landed solutions are
// validated from scratch with assign::validate_solution.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "perfbench/src/bench.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/serve/codec.hpp"
#include "src/sta/corner.hpp"
#include "src/sta/timing_graph.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace gen = cpla::gen;
namespace serve = cpla::serve;

namespace {

struct FlowConfig {
  const char* name;
  // Base designs: every fourth variant uses the second, the rest the first.
  // An unequal mix keeps the call-latency median inside one design's mode
  // (a 1:1 mix puts it in the gap between the two) and the p90 in the other.
  std::vector<std::string> suite;
  int variants;                    // design variants per run
  double critical_ratio;
  core::Engine engine;
  bool sta;  // live 3-corner timing graph steering critical rediscovery
};

/// Capacity perturbation per variant (see perturb_capacities).
constexpr int kPerturbedEdges = 4;

/// One input of the run: a suite design whose capacities the run seed
/// perturbed, prepared and ready to optimize.
struct Variant {
  core::Prepared prep;
  core::CriticalSet critical;
  std::vector<std::vector<int>> entry;
  core::LaMetrics entry_metrics;
  std::unique_ptr<sta::CornerSet> corners;  // borrowed by `graph`
  std::unique_ptr<sta::TimingGraph> graph;
  double setup_ms = 0.0, prepare_ms = 0.0, select_ms = 0.0;
};

/// The three corners of the STA workload: typical, slow and fast RC.
std::vector<sta::RcCorner> three_corners() {
  return {{"typ", 1.0, 1.0, 1.0, -1.0},
          {"slow", 1.15, 1.10, 1.10, -1.0},
          {"fast", 0.90, 0.92, 0.90, -1.0}};
}

/// Set-up of one variant: route + initial assignment, critical selection
/// and (for the STA workload) the timing-graph build. Design generation is
/// input making and stays outside the timed region.
std::unique_ptr<Variant> set_up(grid::Design design, const FlowConfig& cfg, Tracer* tracer) {
  auto v = std::make_unique<Variant>();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core::prepare");
    v->prep = core::prepare(std::move(design));
  }
  v->prepare_ms = ms_since(t0);
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(tracer, "core::select_critical");
    v->critical = core::select_critical(*v->prep.state, *v->prep.rc, cfg.critical_ratio);
  }
  v->select_ms = ms_since(t1);
  if (cfg.sta) {
    ScopedSpan span(tracer, "sta::TimingGraph::build");
    v->corners = std::make_unique<sta::CornerSet>(*v->prep.rc, three_corners());
    v->graph = std::make_unique<sta::TimingGraph>();
    v->graph->build(*v->prep.state, *v->corners);
  }
  v->setup_ms = ms_since(t0);
  v->entry = layers_of(*v->prep.state);
  v->entry_metrics = recompute_metrics(*v->prep.state, *v->prep.rc, v->critical);
  return v;
}

/// One optimize call on one variant.
struct Call {
  int variant = 0;
  double ms = 0.0;
  core::LaMetrics metrics;
  std::uint64_t hash = 0;
};

/// Optimizes variant `index` from its entry state. `hook_spans` installs
/// the timed partition_solver hook (traced runs only); `commit_batch` > 0
/// pins the Gauss-Seidel batch size.
Call optimize_variant(Variant* v, int index, const FlowConfig& cfg, Report* report,
                      Tracer* tracer, bool hook_spans, int commit_batch) {
  // Back to the entry assignment. An attached timing graph re-times the
  // restored nets in optimize's first incremental update (bit-identical to
  // a fresh build), so every repeat does that work inside the timed call.
  restore_layers(v->prep.state.get(), v->entry);
  core::CplaOptions opt;
  opt.critical_ratio = cfg.critical_ratio;
  opt.engine = cfg.engine;
  opt.commit_batch = commit_batch;
  if (cfg.sta) opt.sta_graph = v->graph.get();
  int optimize_span = -1;
  if (hook_spans) {
    sdp::SdpOptions sdp_opts = opt.sdp;
    sdp_opts.parallel = sdp_opts.parallel && opt.parallel;
    // The flow's own per-partition solve (the default arbiter mode passes
    // the configured engine through), timed as a concurrent child span.
    opt.partition_solver = [tracer, &optimize_span, sdp_opts, engine = opt.engine, ilp = opt.ilp,
                            guard = opt.guard](const core::PartitionProblem& p,
                                               const assign::AssignState& s,
                                               core::GuardStats* stats) {
      const int span = tracer->begin("core::guarded_solve", -1, optimize_span, true);
      core::GuardedSolve out = core::guarded_solve(p, s, engine, sdp_opts, ilp, guard, stats);
      tracer->end(span);
      return out;
    };
  }
  Call call;
  call.variant = index;
  const Clock::time_point t0 = Clock::now();
  optimize_span = tracer->begin("core::optimize", index);
  const core::OptimizeResult res = core::optimize(v->prep.state.get(), *v->prep.rc, v->critical, opt);
  tracer->end(optimize_span);
  call.ms = ms_since(t0);

  call.metrics = recompute_metrics(*v->prep.state, *v->prep.rc, v->critical);
  call.hash = serve::hash_state(*v->prep.state, v->critical);
  report->check(res.status.is_ok(), std::string(cfg.name) + ": optimize status not ok");
  report->check(same_metrics(res.result.metrics, call.metrics),
                std::string(cfg.name) + ": reported Tcp differs from the recomputation");
  report->check(never_worse(v->entry_metrics, call.metrics),
                std::string(cfg.name) + ": optimize worse than the entry state");
  return call;
}

bool same_result(const Call& a, const Call& b) {
  return a.hash == b.hash && same_metrics(a.metrics, b.metrics);
}

void set_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

/// Cycles through the first `count` variants in whole rounds while the next
/// round fits in `seconds` (at least one round), so every variant gets the
/// same number of repeats. Repeats must reproduce the first call.
std::vector<Call> measure(std::vector<std::unique_ptr<Variant>>* variants, int count,
                          const FlowConfig& cfg, double seconds, Report* report, Tracer* tracer,
                          bool hook_spans) {
  std::vector<Call> calls;
  const Clock::time_point start = Clock::now();
  Clock::time_point round_start = start;
  for (int i = 0;; ++i) {
    const int v = i % count;
    if (i > 0 && v == 0) {
      // Another round only if it fits in the time left at the last round's pace.
      const double round_ms = ms_since(round_start);
      round_start = Clock::now();
      if (ms_since(start) + round_ms > seconds * 1e3) break;
    }
    calls.push_back(optimize_variant((*variants)[static_cast<std::size_t>(v)].get(), v, cfg,
                                     report, tracer, hook_spans, 0));
    if (i >= count) {
      report->check(same_result(calls[static_cast<std::size_t>(v)], calls.back()),
                    std::string(cfg.name) + ": repeated optimize is not deterministic");
    }
  }
  return calls;
}

double total_ms(const std::vector<Call>& calls) {
  double sum = 0.0;
  for (const Call& c : calls) sum += c.ms;
  return sum;
}

void run_flow(const FlowConfig& cfg, const Args& args, Report* report, Tracer* tracer) {
  // Inputs: variant v is a base design with capacities perturbed by (run
  // seed, v).
  std::vector<grid::Design> inputs;
  for (int v = 0; v < cfg.variants; ++v) {
    grid::Design design = gen::generate(gen::suite_spec(cfg.suite[v % 4 == 3 ? 1 : 0]));
    perturb_capacities(&design, mix_seed(static_cast<std::uint64_t>(v), args.seed),
                       kPerturbedEdges);
    inputs.push_back(std::move(design));
  }

  reset_obs();
  std::vector<std::unique_ptr<Variant>> variants;
  std::vector<double> setup_ms, prepare_ms, select_ms;
  {
    ScopedSpan span(tracer, "setup");
    for (grid::Design& design : inputs) {
      variants.push_back(set_up(std::move(design), cfg, tracer));
      setup_ms.push_back(variants.back()->setup_ms);
      prepare_ms.push_back(variants.back()->prepare_ms);
      select_ms.push_back(variants.back()->select_ms);
    }
  }
  const double nv = cfg.variants;
  const double setup_reroutes = counter("route.ripup.reroutes") / nv;
  const double setup_assign_ms = hist_sum("phase.core.pipeline.initial_assign.ms") / nv;
  const double setup_sta_build_ms = hist_sum("phase.sta.build.ms") / nv;
  double sta_nodes = 0.0, sta_levels = 0.0;
  for (const auto& v : variants) {
    if (!v->graph) continue;
    sta_nodes += v->graph->num_nodes() / nv;
    sta_levels += v->graph->num_levels() / nv;
  }

  // Timed calls, tracing off. The traced run measures half the variants
  // once untraced (the baseline) and once traced.
  const int count = args.trace ? std::max(1, cfg.variants / 2) : cfg.variants;
  tracer->set_enabled(false);
  // The process's first optimize pays for page faults and cold caches that
  // no later call sees. Timed runs report each variant's fastest repeat,
  // which drops it; the traced run, which compares single calls, makes one
  // untimed call first.
  if (args.trace) (void)optimize_variant(variants[0].get(), 0, cfg, report, tracer, false, 0);
  reset_obs();
  const std::vector<Call> calls =
      measure(&variants, count, cfg, args.trace ? 0.0 : args.seconds, report, tracer, false);
  tracer->set_enabled(args.trace);

  // Accounting identity: guard tiers sum to solves.
  const double tiers = counter("core.guard.tier.primary") + counter("core.guard.tier.sdp-retry") +
                       counter("core.guard.tier.ilp-fallback") +
                       counter("core.guard.tier.net-dp") + counter("core.guard.tier.keep-current");
  report->check(tiers == counter("core.guard.solves") && tiers > 0,
                std::string(cfg.name) + ": guard tiers do not sum to core.guard.solves");
  for (const auto& v : variants) {
    const std::string err = validate_netlist(*v->prep.design, *v->prep.state);
    report->check(err.empty(), std::string(cfg.name) + ": validator: " + err);
  }

  // Quality and the result hash come from each variant's first call.
  double avg_ratio = 0.0, max_ratio = 0.0, overflow = 0.0, vias = 0.0;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int v = 0; v < count; ++v) {
    const core::LaMetrics& e = variants[static_cast<std::size_t>(v)]->entry_metrics;
    const core::LaMetrics& f = calls[static_cast<std::size_t>(v)].metrics;
    avg_ratio += f.avg_tcp / e.avg_tcp / count;
    max_ratio += f.max_tcp / e.max_tcp / count;
    overflow += static_cast<double>(f.wire_overflow + f.via_overflow) / count;
    vias += static_cast<double>(f.via_count) / count;
    hash = fold_hash(hash, calls[static_cast<std::size_t>(v)].hash);
  }
  char hash_line[96];
  std::snprintf(hash_line, sizeof(hash_line), "%s seed=%llu variants=%d hash=%016llx\n",
                cfg.name, static_cast<unsigned long long>(args.seed), count,
                static_cast<unsigned long long>(hash));
  write_artifact(args, std::string("hash_") + cfg.name + (args.trace ? "_traced.txt" : ".txt"),
                 hash_line);

  report->metric("assign.overflow", overflow, "count");
  if (!args.trace) {
    // Every repeat of a variant does the same computation (checked above),
    // so each variant's latency is its fastest repeat: the rest is noise
    // from the machine.
    std::vector<double> call_ms;
    for (int v = 0; v < count; ++v) call_ms.push_back(calls[static_cast<std::size_t>(v)].ms);
    for (const Call& c : calls) {
      double& best = call_ms[static_cast<std::size_t>(c.variant)];
      best = std::min(best, c.ms);
    }
    report->metric("setup_s", median(setup_ms) / 1e3, "s");
    report->metric("optimize_s", sum(call_ms) / 1e3, "s");
    report->metric("resolve_p50_ms", percentile(call_ms, 50.0), "ms");
    report->metric("resolve_p90_ms", percentile(call_ms, 90.0), "ms");
    report->metric("ops_per_s", static_cast<double>(count) / (sum(call_ms) / 1e3), "1/s");
    report->metric("avg_tcp_ratio", avg_ratio, "ratio");
    report->metric("max_tcp_ratio", max_ratio, "ratio");
    report->metric("via_count", vias, "count");
    report->metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- Traced run: the same calls with spans and the timed solve hook.
  reset_obs();
  const int root = tracer->begin("measure");
  const std::vector<Call> traced = measure(&variants, count, cfg, 0.0, report, tracer, true);
  tracer->end(root);
  const double n = static_cast<double>(traced.size());
  for (int v = 0; v < count; ++v) {
    report->check(same_result(calls[static_cast<std::size_t>(v)], traced[static_cast<std::size_t>(v)]),
                  std::string(cfg.name) + ": tracing changed the result");
  }
  const double traced_ms = total_ms(traced);
  report_core_layers(report, n, traced_ms);

  // Loop-level attribution: span self times add back up to the root; the
  // root's own self time is the benchmark's unattributed share.
  report->metric("trace.unattributed_ms", root_self_ms(*tracer, "measure", report, cfg.name) / n,
                 "ms");
  report->metric("trace.overhead_share", (traced_ms - total_ms(calls)) / total_ms(calls), "ratio");

  const std::vector<double> solves = tracer->durations("core::guarded_solve");
  double busy = 0.0;
  for (double s : solves) busy += s;
  const double solve_phase_ms = hist_sum("phase.core.flow.solve.ms");
  report->metric("core.solve.p50_ms", median(solves), "ms");
  report->metric("core.solve.busy_ms", busy / n, "ms");
  report->metric("core.solve.utilization",
                 solve_phase_ms > 0 ? busy / (kThreads * solve_phase_ms) : 0.0, "ratio");
  report->metric("sta.graph.nodes", sta_nodes, "count");
  report->metric("sta.graph.levels", sta_levels, "count");
  report->metric("route.prepare_s", median(prepare_ms) / 1e3, "s");
  report->metric("route.ripup_reroutes", setup_reroutes, "count");
  report->metric("assign.initial_assign_ms", setup_assign_ms, "ms");
  report->metric("core.critical.select_ms", median(select_ms), "ms");
  report->metric("sta.build_ms", setup_sta_build_ms, "ms");

  // Premise: which layers the optimize wall time goes to. Busy time is
  // summed over the T solve threads, so it can exceed wall time.
  const double sdp_share = hist_sum("sdp.solve.ms") / traced_ms;
  const double lagr_share = cfg.engine == core::Engine::kLagr ? busy / traced_ms : 0.0;
  const double sta_share = hist_sum("phase.core.flow.sta.ms") / traced_ms;
  report->note(std::string(cfg.name) + ": premise: per ms of optimize wall time, sdp busy " +
               std::to_string(sdp_share) + " ms, lagr solve busy " + std::to_string(lagr_share) +
               " ms, sta phase " + std::to_string(sta_share) + " ms");

  // Thread scaling on variant 0 with the commit batch pinned, so every
  // thread count does the same computation and must land on the same bits.
  std::vector<Call> scaling;
  bool identical = true;
  for (int threads : kScalingThreads) {
    set_threads(threads);
    scaling.push_back(optimize_variant(variants[0].get(), 0, cfg, report, tracer, false,
                                       kScalingBatch));
    if (!same_result(scaling.front(), scaling.back())) {
      identical = false;
      report->note(std::string(cfg.name) + ": FINDING: the " + std::to_string(threads) +
                   "-thread result differs from the 1-thread result");
    }
  }
  set_threads(kThreads);
  report->metric("core.parallel_speedup", scaling[0].ms / scaling[1].ms, "ratio");
  report->metric("core.scaling.speedup_t4", scaling[0].ms / scaling[2].ms, "ratio");
  report->metric("core.scaling.identical", identical ? 1.0 : 0.0, "bool");
}

}  // namespace

void run_flow_sdp(const Args& args, Report* report, Tracer* tracer) {
  // An SDP optimize of one of these designs takes seconds, so a run is
  // about one round: many variants, each optimized about once.
  run_flow({"flow_sdp", {"newblue1", "adaptec1"}, 12, 0.005, core::Engine::kSdp, false}, args,
           report, tracer);
}

void run_flow_lagr_sta(const Args& args, Report* report, Tracer* tracer) {
  run_flow({"flow_lagr_sta", {"newblue1", "adaptec1"}, 24, 0.03, core::Engine::kLagr, true}, args,
           report, tracer);
}

}  // namespace perfbench
