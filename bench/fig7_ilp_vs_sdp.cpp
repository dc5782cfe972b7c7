// Fig. 7: ILP formulation vs SDP relaxation on the small test cases
// (adaptec1, adaptec2, bigblue1, newblue1, newblue2, newblue4), 0.5%
// released, partitioning applied to both.
//
// Paper shape: (a) average and (b) maximum critical-path timing nearly
// identical between ILP and SDP; (c) SDP significantly faster.
//
// Every landed state is checked independently (bench::check_landed_state);
// the artifact records validated = 1, and any failure exits nonzero.

#include "bench/harness.hpp"

int main(int argc, char** argv) {
  using namespace cpla;
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("fig7_ilp_vs_sdp", args);
  set_log_level(LogLevel::kWarn);
  std::printf("=== Fig 7: ILP vs SDP on small cases (0.5%% critical) ===\n\n");

  Table table({"bench", "ILP Avg(Tcp)", "SDP Avg(Tcp)", "ILP Max(Tcp)", "SDP Max(Tcp)",
               "ILP CPU(s)", "SDP CPU(s)"});

  double sum_ilp_cpu = 0.0, sum_sdp_cpu = 0.0;
  double sum_ilp_avg = 0.0, sum_sdp_avg = 0.0;
  bool validated = true;
  for (const auto& name : gen::small_case_names()) {
    bench::BenchRun run = bench::make_run(name, 0.005, args.seed);

    // Same iterative scheme and round budget for both; only the engine
    // differs (the paper applies its partitioning to both methods).
    core::CplaOptions ilp_opt;
    ilp_opt.engine = core::Engine::kIlp;
    ilp_opt.max_rounds = 3;
    ilp_opt.ilp.time_limit_s = 10.0;  // per-partition cap; ILP is the slow reference
    const bench::FlowOutcome ilp = bench::run_cpla_flow(&run, ilp_opt);
    validated &= bench::landed_state_ok("fig7_ilp_vs_sdp", name + ".ilp", run.prepared,
                                        run.critical, ilp.metrics);

    core::CplaOptions sdp_opt;
    sdp_opt.max_rounds = 3;
    const bench::FlowOutcome sdp = bench::run_cpla_flow(&run, sdp_opt);
    validated &= bench::landed_state_ok("fig7_ilp_vs_sdp", name + ".sdp", run.prepared,
                                        run.critical, sdp.metrics);
    report.record_flow(name + ".ilp", ilp);
    report.record_flow(name + ".sdp", sdp);

    table.add_row({name, fmt_num(ilp.metrics.avg_tcp / 1e3, 2),
                   fmt_num(sdp.metrics.avg_tcp / 1e3, 2), fmt_num(ilp.metrics.max_tcp / 1e3, 2),
                   fmt_num(sdp.metrics.max_tcp / 1e3, 2), fmt_num(ilp.seconds, 2),
                   fmt_num(sdp.seconds, 2)});
    sum_ilp_cpu += ilp.seconds;
    sum_sdp_cpu += sdp.seconds;
    sum_ilp_avg += ilp.metrics.avg_tcp;
    sum_sdp_avg += sdp.metrics.avg_tcp;
  }
  table.print(stdout);

  std::printf("\nSDP/ILP quality ratio (Avg): %.3f;  ILP/SDP runtime ratio: %.2fx\n",
              sum_sdp_avg / sum_ilp_avg, sum_ilp_cpu / std::max(0.01, sum_sdp_cpu));
  std::printf("(paper: quality ~1.0, ILP much slower — it cannot finish large cases)\n");
  report.record_value("ratio.quality", sum_sdp_avg / sum_ilp_avg);
  report.record_value("validated", validated ? 1.0 : 0.0);
  return report.write() && validated ? 0 : 1;
}
