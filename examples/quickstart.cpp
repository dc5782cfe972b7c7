// Quickstart: generate a benchmark, route it, assign layers, then improve
// the critical nets with the paper's SDP-based CPLA flow and compare
// against the TILA baseline.
//
//   ./quickstart [benchmark-name] [critical-ratio]
//
// Defaults: adaptec1 at 0.5% (the paper's headline configuration, scaled).

#include <cstdio>
#include <string>

#include "examples/common.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/tila.hpp"
#include "src/gen/synth.hpp"
#include "src/util/timer.hpp"

constexpr char kUsage[] = "usage: quickstart [BENCHMARK] [CRITICAL_RATIO]\n";

int main(int argc, char** argv) {
  using namespace cpla;

  // Both arguments are checked before anything is generated; a bad one
  // exits 2 with the usage line.
  const std::string bench = examples::suite_name(argc > 1 ? argv[1] : "adaptec1", kUsage);
  const double ratio =
      argc > 2 ? examples::checked_number("ratio", argv[2], 0.0, 1.0, false, kUsage) : 0.005;

  // 1. Generate (or parse — see parser::read_ispd08_file) a design.
  grid::Design design = gen::generate_suite(bench);
  examples::print_design_summary(design);

  // 2. Route + initial layer assignment (the CPLA problem's inputs).
  core::Prepared tila_run = core::prepare(design);
  core::Prepared cpla_run = core::prepare(std::move(design));

  // 3. Release the same critical nets for both engines.
  const core::CriticalSet critical = core::select_critical(*cpla_run.state, *cpla_run.rc, ratio);
  std::printf("released %zu critical nets (%.2f%%)\n", critical.nets.size(), 100.0 * ratio);

  const core::LaMetrics before = core::compute_metrics(*cpla_run.state, *cpla_run.rc, critical);

  // 4. TILA baseline.
  WallTimer tila_timer;
  core::run_tila(tila_run.state.get(), *tila_run.rc, critical);
  const double tila_s = tila_timer.seconds();
  const core::LaMetrics tila = core::compute_metrics(*tila_run.state, *tila_run.rc, critical);

  // 5. CPLA (SDP engine).
  WallTimer cpla_timer;
  const core::CplaResult result = core::run_cpla(cpla_run.state.get(), *cpla_run.rc, critical);
  const double cpla_s = cpla_timer.seconds();

  // 6. Report.
  examples::MetricTable table;
  table.add("initial", before, 0.0);
  table.add("TILA", tila, tila_s);
  table.add("CPLA-SDP", result.metrics, cpla_s);
  table.print();

  std::printf("\nCPLA: %d rounds, %d partitions, quadtree depth %d\n", result.rounds,
              result.partitions_solved, result.max_partition_depth);
  return 0;
}
