// Timing-report example: route and assign a benchmark, then print a
// per-net critical-path report for the worst nets — per-segment layers,
// downstream capacitance, and arrival times, the quantities Eqns (2)/(3)
// are built from.
//
//   ./timing_report [benchmark-name] [num-nets]

#include <algorithm>
#include <climits>
#include <cstdio>
#include <numeric>
#include <string>

#include "examples/common.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/str.hpp"
#include "src/util/table.hpp"

constexpr char kUsage[] = "usage: timing_report [BENCHMARK] [NUM_NETS]\n";

int main(int argc, char** argv) {
  using namespace cpla;

  // Both arguments are checked before anything is generated; a bad one
  // exits 2 with the usage line.
  const std::string bench = examples::suite_name(argc > 1 ? argv[1] : "newblue1", kUsage);
  const int report_nets =
      argc > 2 ? static_cast<int>(
                     examples::checked_number("num-nets", argv[2], 1, INT_MAX, true, kUsage))
               : 3;

  core::Prepared prep = core::prepare(gen::generate_suite(bench));
  const auto& state = *prep.state;
  const auto& rc = *prep.rc;

  // Rank nets by critical-path delay.
  std::vector<int> order(static_cast<std::size_t>(state.num_nets()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> delay(order.size(), 0.0);
  for (int n = 0; n < state.num_nets(); ++n) {
    if (state.tree(n).segs.empty()) continue;
    delay[n] = timing::critical_delay(state.tree(n), state.layers(n), rc);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) { return delay[a] > delay[b]; });

  std::printf("%s: %d nets; worst %d critical paths\n\n", bench.c_str(), state.num_nets(),
              report_nets);

  for (int rank = 0; rank < report_nets && rank < state.num_nets(); ++rank) {
    const int net = order[rank];
    const auto& tree = state.tree(net);
    const auto t = timing::compute_timing(tree, state.layers(net), rc);

    std::printf("#%d net %d (%s): %zu segments, %zu sinks, Tcp = %.1f\n", rank + 1, net,
                prep.design->nets[net].name.c_str(), tree.segs.size(), tree.sinks.size(),
                t.max_sink_delay);

    Table table({"seg", "dir", "span", "layer", "len", "Cd", "arrival", "critical"});
    for (const auto& seg : tree.segs) {
      if (!t.on_critical_path[seg.id]) continue;
      table.add_row({std::to_string(seg.id), seg.horizontal ? "H" : "V",
                     str_format("(%d,%d)-(%d,%d)", seg.a.x, seg.a.y, seg.b.x, seg.b.y),
                     str_format("M%d", state.layers(net)[seg.id] + 1),
                     std::to_string(seg.length()), fmt_num(t.downstream_cap[seg.id], 1),
                     fmt_num(t.arrival[seg.id], 1), "*"});
    }
    table.print(stdout);
    std::printf("\n");
  }

  // Whole-design summary.
  double total = 0.0, worst = 0.0;
  int counted = 0;
  for (int n = 0; n < state.num_nets(); ++n) {
    if (state.tree(n).segs.empty()) continue;
    total += delay[n];
    worst = std::max(worst, delay[n]);
    ++counted;
  }
  std::printf("design summary: avg net Tcp %.1f, worst %.1f, vias %ld, via overflow %ld\n",
              total / std::max(1, counted), worst, state.via_count(), state.via_overflow());
  return 0;
}
