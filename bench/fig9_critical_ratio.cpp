// Fig. 9: impact of the critical ratio (fraction of nets released) on
// benchmark adaptec1, TILA vs SDP.
//
// Paper shape: (a) Avg(Tcp) decreases slightly with more released nets for
// both flows; (b) TILA does not control Max(Tcp) as well as SDP; (c) SDP
// runtime grows roughly linearly with the ratio (well-controlled
// scalability).
//
// Every landed state is checked independently (bench::check_landed_state);
// the artifact records validated = 1, and any failure exits nonzero.

#include "bench/harness.hpp"

int main(int argc, char** argv) {
  using namespace cpla;
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("fig9_critical_ratio", args);
  set_log_level(LogLevel::kWarn);
  std::printf("=== Fig 9: critical-ratio impact on adaptec1 ===\n\n");

  const double ratios[] = {0.005, 0.010, 0.015, 0.020, 0.025};

  Table table({"ratio", "TILA Avg(Tcp)", "SDP Avg(Tcp)", "TILA Max(Tcp)", "SDP Max(Tcp)",
               "TILA CPU(s)", "SDP CPU(s)"});
  bool validated = true;
  for (double ratio : ratios) {
    bench::BenchRun run = bench::make_run("adaptec1", ratio, args.seed);
    std::string prefix = "adaptec1.r";  // two steps: gcc 12 -Wrestrict FP (PR105651)
    prefix += fmt_num(1000.0 * ratio, 0);
    const bench::FlowOutcome tila = bench::run_tila_flow(&run);
    validated &= bench::landed_state_ok("fig9_critical_ratio", prefix + ".tila", run.prepared,
                                        run.critical, tila.metrics);
    const bench::FlowOutcome sdp = bench::run_cpla_flow(&run);
    validated &= bench::landed_state_ok("fig9_critical_ratio", prefix + ".sdp", run.prepared,
                                        run.critical, sdp.metrics);
    report.record_flow(prefix + ".tila", tila);
    report.record_flow(prefix + ".sdp", sdp);
    table.add_row({fmt_num(100.0 * ratio, 1) + "%", fmt_num(tila.metrics.avg_tcp / 1e3, 2),
                   fmt_num(sdp.metrics.avg_tcp / 1e3, 2), fmt_num(tila.metrics.max_tcp / 1e3, 2),
                   fmt_num(sdp.metrics.max_tcp / 1e3, 2), fmt_num(tila.seconds, 3),
                   fmt_num(sdp.seconds, 2)});
  }
  table.print(stdout);
  std::printf("\n(paper: Avg decreases mildly with ratio for both; SDP holds Max(Tcp)\n"
              " down where TILA does not; SDP runtime scales ~linearly with ratio)\n");
  report.record_value("validated", validated ? 1.0 : 0.0);
  return report.write() && validated ? 0 : 1;
}
