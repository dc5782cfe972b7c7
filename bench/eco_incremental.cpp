// ECO engine headline bench: replay a deterministic 50-delta edit script
// (12 under --quick) against a converged assignment twice — once through
// EcoSession::resolve() (warm partition-solution cache + timing cache) and
// once as a from-scratch core::optimize() on an identically mutated control
// copy — timing both and insisting the results stay bit-identical at every
// step. Reports the aggregate speedup, the cache hit rate and the share of
// partitions that ran a solver. Every landed state is checked
// independently (bench::check_landed_state); the artifact records
// validated = 1.
//
// Exit status: nonzero when any step diverges or fails the landed-state
// check (always), or when the warm speedup falls below 3x (full mode only;
// --quick is too small to gate).
//
// Usage: eco_incremental [--quick] [--seed N] [--metrics-out FILE]

#include "bench/harness.hpp"
#include "src/eco/delta.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"

int main(int argc, char** argv) {
  using namespace cpla;
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("eco_incremental", args);
  set_log_level(LogLevel::kWarn);
  const int num_deltas = args.quick ? 12 : 50;
  std::printf("=== ECO: incremental resolve vs from-scratch (%d deltas) ===\n\n", num_deltas);

  gen::SynthSpec spec;
  spec.name = "eco";
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 200;
  spec.num_layers = 6;
  spec.seed = 7 + (args.seed - 1) * 0x9e3779b97f4a7c15ull;
  core::Prepared live = core::prepare(gen::generate(spec));
  core::Prepared control = core::prepare(gen::generate(spec));

  eco::EcoOptions opt;
  opt.critical_ratio = 0.03;
  opt.cache_capacity = 8192;
  eco::EcoSession session(live.design.get(), live.state.get(), live.rc.get(), opt);
  core::CriticalSet control_critical = session.critical();

  // ECO premise: edits arrive against a converged assignment. Align both
  // sides on it (bit-identical by the equivalence contract) and warm the
  // cache in the same stroke.
  bool validated = true;
  auto check_landed = [&](const char* when, const core::OptimizeResult& landed) {
    const std::string invalid =
        bench::check_landed_state(live, session.critical(), landed.result.metrics);
    if (!invalid.empty()) {
      std::fprintf(stderr, "eco_incremental: FAIL %s: %s\n", when, invalid.c_str());
      validated = false;
    }
  };
  {
    WallTimer timer;
    const core::OptimizeResult warmed = session.resolve();
    report.record_phase("warmup.resolve", timer.seconds() * 1e3);
    check_landed("warmup", warmed);
  }
  core::optimize(control.state.get(), *control.rc, control_critical, opt.flow);

  const std::vector<eco::Delta> script = eco::make_edit_script(
      session.state(), session.critical(), {.count = num_deltas, .seed = args.seed});
  if (static_cast<int>(script.size()) != num_deltas) {
    std::fprintf(stderr, "eco_incremental: script generation came up short\n");
    return 1;
  }
  const eco::EcoStats warm = session.stats();

  double inc_s = 0.0, full_s = 0.0;
  long mismatch_nets = 0;
  for (int i = 0; i < num_deltas; ++i) {
    if (!session.apply(script[i]).is_ok() ||
        !eco::apply_delta(script[i], control.design.get(), control.state.get(),
                          &control_critical)
             .is_ok()) {
      std::fprintf(stderr, "eco_incremental: delta %d failed to apply\n", i);
      return 1;
    }
    WallTimer inc_timer;
    const core::OptimizeResult landed = session.resolve();
    inc_s += inc_timer.seconds();
    {
      WallTimer timer;
      core::optimize(control.state.get(), *control.rc, control_critical, opt.flow);
      full_s += timer.seconds();
    }
    for (int net = 0; net < control.state->num_nets(); ++net) {
      if (live.state->layers(net) != control.state->layers(net)) ++mismatch_nets;
    }
    check_landed("resolve", landed);
    if ((i + 1) % 10 == 0) std::printf("  %d/%d deltas replayed\n", i + 1, num_deltas);
  }

  const eco::EcoStats s = session.stats();
  const long hits = s.cache_hits - warm.cache_hits;
  const long misses = s.cache_misses - warm.cache_misses;
  const double hit_rate = hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0;
  const double speedup = inc_s > 0.0 ? full_s / inc_s : 0.0;
  // Whole session, warm-up included: every partition looks the cache up
  // once, and each miss runs the solver.
  const double solve_share =
      s.clean_partitions > 0 ? double(s.cache_misses) / double(s.clean_partitions) : 0.0;

  Table table({"metric", "value"});
  table.add_row({"incremental total (s)", fmt_num(inc_s, 2)});
  table.add_row({"from-scratch total (s)", fmt_num(full_s, 2)});
  table.add_row({"speedup", fmt_num(speedup, 2) + "x"});
  table.add_row({"cache hit rate", fmt_num(hit_rate * 100.0, 1) + "%"});
  table.add_row({"partitions looked up", std::to_string(s.clean_partitions)});
  table.add_row({"solve share", fmt_num(solve_share * 100.0, 1) + "%"});
  table.add_row({"mismatched nets", std::to_string(mismatch_nets)});
  table.print(stdout);

  report.record_phase("incremental.resolve_total", inc_s * 1e3);
  report.record_phase("from_scratch.optimize_total", full_s * 1e3);
  // Inverse speedup rides the phases section: it shares wall-clock's
  // "bigger is worse" direction and machine noise, so CI's --no-time skips
  // it while local comparisons still gate it at the time tolerance.
  report.record_phase("eco.inverse_speedup", speedup > 0.0 ? 1e3 / speedup : 1e9);
  report.record_value("eco.mismatch_nets", static_cast<double>(mismatch_nets));
  report.record_value("eco.cache.miss_rate", hits + misses > 0 ? 1.0 - hit_rate : 1.0);
  report.record_value("eco.solve_share", solve_share);
  report.record_value("validated", validated ? 1.0 : 0.0);
  const core::LaMetrics final_metrics =
      core::compute_metrics(*live.state, *live.rc, session.critical());
  report.record_value("eco.final.avg_tcp", final_metrics.avg_tcp);
  report.record_value("eco.final.max_tcp", final_metrics.max_tcp);

  if (!validated) {
    report.write();
    return 1;
  }
  if (mismatch_nets > 0) {
    std::fprintf(stderr, "eco_incremental: FAIL - incremental resolve diverged on %ld nets\n",
                 mismatch_nets);
    report.write();
    return 1;
  }
  if (!args.quick && speedup < 3.0) {
    std::fprintf(stderr, "eco_incremental: FAIL - warm speedup %.2fx below the 3x floor\n",
                 speedup);
    report.write();
    return 1;
  }
  return report.write() ? 0 : 1;
}
