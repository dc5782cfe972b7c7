// Fig. 1: pin delay distribution of critical nets on adaptec1 with 0.5% of
// nets released, TILA vs our incremental layer assignment. The paper's
// point: the SDP flow shortens the *tail* (the worst pins) even where the
// bulk of the distribution is similar.
//
// Prints two histograms: pin count (log2 buckets on the paper's y-axis)
// per delay bin. Both landed states are checked independently
// (bench::check_landed_state); the artifact records validated = 1, and any
// failure exits nonzero.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/harness.hpp"
#include "src/timing/elmore.hpp"

namespace {

std::vector<double> sink_delays(const cpla::core::Prepared& prepared,
                                const cpla::core::CriticalSet& critical) {
  std::vector<double> delays;
  for (int net : critical.nets) {
    const auto timing = cpla::timing::compute_timing(
        prepared.state->tree(net), prepared.state->layers(net), *prepared.rc);
    delays.insert(delays.end(), timing.sink_delay.begin(), timing.sink_delay.end());
  }
  return delays;
}

void print_histogram(const char* title, const std::vector<double>& delays, double lo,
                     double hi, int bins) {
  std::printf("%s  (%zu critical pins)\n", title, delays.size());
  const double width = (hi - lo) / bins;
  for (int b = 0; b < bins; ++b) {
    const double from = lo + b * width;
    const double to = from + width;
    int count = 0;
    for (double d : delays) {
      if (d >= from && (d < to || (b == bins - 1 && d <= to))) ++count;
    }
    std::string bar(static_cast<std::size_t>(count > 0 ? 1 + std::log2(count) : 0), '#');
    std::printf("  [%8.0f, %8.0f) %5d %s\n", from, to, count, bar.c_str());
  }
  const double worst = delays.empty() ? 0.0 : *std::max_element(delays.begin(), delays.end());
  std::printf("  worst pin delay: %.0f\n\n", worst);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpla;
  const bench::BenchArgs args = bench::parse_bench_args(&argc, argv);
  bench::BenchReport report("fig1_delay_distribution", args);
  set_log_level(LogLevel::kWarn);
  std::printf("=== Fig 1: pin delay distribution, adaptec1, 0.5%% critical ===\n\n");

  bench::BenchRun run = bench::make_run("adaptec1", 0.005, args.seed);

  const bench::FlowOutcome tila_out = bench::run_tila_flow(&run);
  const std::vector<double> tila = sink_delays(run.prepared, run.critical);
  bool validated = bench::landed_state_ok("fig1_delay_distribution", "adaptec1.tila",
                                          run.prepared, run.critical, tila_out.metrics);

  const bench::FlowOutcome ours_out = bench::run_cpla_flow(&run);
  const std::vector<double> ours = sink_delays(run.prepared, run.critical);
  validated &= bench::landed_state_ok("fig1_delay_distribution", "adaptec1.sdp", run.prepared,
                                      run.critical, ours_out.metrics);
  report.record_flow("adaptec1.tila", tila_out);
  report.record_flow("adaptec1.sdp", ours_out);

  // Common bin range across both flows (like the paper's shared x-axis).
  double hi = 0.0;
  for (double d : tila) hi = std::max(hi, d);
  for (double d : ours) hi = std::max(hi, d);

  print_histogram("(a) TILA", tila, 0.0, hi, 14);
  print_histogram("(b) ours (SDP)", ours, 0.0, hi, 14);

  const double tila_worst = *std::max_element(tila.begin(), tila.end());
  const double ours_worst = *std::max_element(ours.begin(), ours.end());
  std::printf("max pin delay: TILA %.0f vs ours %.0f (%.1f%% lower)\n", tila_worst, ours_worst,
              100.0 * (1.0 - ours_worst / tila_worst));
  report.record_value("adaptec1.tila.worst_pin_delay", tila_worst);
  report.record_value("adaptec1.sdp.worst_pin_delay", ours_worst);
  report.record_value("validated", validated ? 1.0 : 0.0);
  return report.write() && validated ? 0 : 1;
}
