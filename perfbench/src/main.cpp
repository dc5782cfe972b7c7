// cpla_perfbench: the repository benchmark driver.
//
//   cpla_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// Workloads: flow_sdp, flow_lagr_sta, eco_edits, serve_sessions. The last
// line of standard output is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes its spans to DIR/spans_<name>.json;
// every run writes its final-state hash to DIR/hash_<name>*.txt. The exit
// status is nonzero when any correctness check or accounting identity
// failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "perfbench/src/bench.hpp"
#include "src/util/logging.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every --trace 0 run prints all of these (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"optimize_s", "s"},      {"resolve_p50_ms", "ms"},
    {"resolve_p90_ms", "ms"},   {"ops_per_s", "1/s"},     {"avg_tcp_ratio", "ratio"},
    {"max_tcp_ratio", "ratio"}, {"via_count", "count"},   {"peak_rss_mb", "MB"},
};

// Every --trace 1 run prints all of these (BENCHMARK.json "per_layer"); a
// layer the workload bypasses reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"omp.threads", "count"},
    {"route.prepare_s", "s"},
    {"route.ripup_reroutes", "count"},
    {"assign.initial_assign_ms", "ms"},
    {"assign.overflow", "count"},
    {"core.critical.select_ms", "ms"},
    {"core.flow.rounds", "count"},
    {"core.flow.partitions", "count"},
    {"core.flow.timing_snapshot_ms", "ms"},
    {"core.flow.partition_ms", "ms"},
    {"core.flow.solve_ms", "ms"},
    {"core.flow.commit_ms", "ms"},
    {"core.flow.displace_ms", "ms"},
    {"core.flow.sta_ms", "ms"},
    {"core.flow.unattributed_ms", "ms"},
    {"core.guard.solves", "count"},
    {"core.guard.primary_share", "ratio"},
    {"core.guard.rollback_share", "ratio"},
    {"core.solve.p50_ms", "ms"},
    {"core.solve.busy_ms", "ms"},
    {"core.solve.utilization", "ratio"},
    {"core.parallel_speedup", "ratio"},
    {"core.scaling.speedup_t4", "ratio"},
    {"core.scaling.identical", "bool"},
    {"sdp.solve.calls", "count"},
    {"sdp.solve.iterations", "count"},
    {"sdp.iterations_per_solve", "count"},
    {"sdp.solve.busy_ms", "ms"},
    {"sdp.solve.failures", "count"},
    {"sdp.solve.stalls", "count"},
    {"la.cholesky.factors", "count"},
    {"la.cholesky.failures", "count"},
    {"la.cholesky.fail_share", "ratio"},
    {"la.eigen.calls", "count"},
    {"lp.simplex.pivots", "count"},
    {"ilp.bnb.nodes", "count"},
    {"timing.elmore.evals", "count"},
    {"timing.incremental.hit_share", "ratio"},
    {"lagr.solve.calls", "count"},
    {"lagr.solve.improved_share", "ratio"},
    {"sta.build_ms", "ms"},
    {"sta.update.incremental", "count"},
    {"sta.update.dirty_nodes", "count"},
    {"sta.update_ms", "ms"},
    {"sta.propagate_ms", "ms"},
    {"sta.graph.nodes", "count"},
    {"sta.graph.levels", "count"},
    {"eco.resolve.busy_ms", "ms"},
    {"eco.cache.lookups", "count"},
    {"eco.cache.hit_share", "ratio"},
    {"eco.cache.evictions", "count"},
    {"eco.partitions.dirty_share", "ratio"},
    {"eco.resolve.fallbacks", "count"},
    {"eco.apply_p50_us", "us"},
    {"serve.submit_p50_us", "us"},
    {"serve.snapshot_read_p50_us", "us"},
    {"serve.sync_p50_ms", "ms"},
    {"serve.sync_p90_ms", "ms"},
    {"serve.worker.resolve_ms", "ms"},
    {"serve.resolve.wait_ms", "ms"},
    {"serve.batch_ms", "ms"},
    {"serve.worker.batches", "count"},
    {"serve.journal.records", "count"},
    {"serve.checkpoint.writes", "count"},
    {"serve.resolve_fold", "ratio"},
    {"serve.deltas.shed", "count"},
    {"serve.deltas.rejected", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: cpla_perfbench --workload flow_sdp|flow_lagr_sta|eco_edits|"
               "serve_sessions --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0.0) return usage();
  void (*run)(const Args&, Report*, Tracer*) = nullptr;
  if (args.workload == "flow_sdp") run = run_flow_sdp;
  if (args.workload == "flow_lagr_sta") run = run_flow_lagr_sta;
  if (args.workload == "eco_edits") run = run_eco_edits;
  if (args.workload == "serve_sessions") run = run_serve_sessions;
  if (run == nullptr) return usage();

  // Every thread the libraries start (the service worker, client threads)
  // must see the same OpenMP thread count: the commit-batch size, and with it
  // the result bits, follows it. The runtime reads the variable once at
  // start-up, so re-execute with it set when it is not.
  const std::string threads = std::to_string(kThreads);
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || threads != env) {
    setenv("OMP_NUM_THREADS", threads.c_str(), 1);
    execv("/proc/self/exe", argv);
    std::perror("cpla_perfbench: re-exec with OMP_NUM_THREADS");
    return 2;
  }
  cpla::set_log_level(cpla::LogLevel::kError);

  Report report;
  Tracer tracer(args.trace);
  run(args, &report, &tracer);

  if (args.trace) {
    report.metric("omp.threads", kThreads, "count");
    for (const MetricSpec& m : kPerLayer) {
      if (!report.has_metric(m.name)) report.metric(m.name, 0.0, m.unit);
    }
    write_artifact(args, ".keep", "");
    if (!tracer.write(args.out_dir + "/spans_" + args.workload + ".json")) {
      report.check(false, "cannot write the span file");
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      report.check(report.has_metric(m.name), std::string("missing metric ") + m.name);
    }
  }
  report.print_failures();
  Report out;  // the printed set: exactly the listed metrics, in list order
  out.attempted_ok(report.attempted() - report.failed());
  for (long i = 0; i < report.failed(); ++i) out.check(false, "");
  const auto copy = [&](const MetricSpec& m) { out.metric(m.name, report.value(m.name), m.unit); };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) copy(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) copy(m);
  }
  std::printf("%s\n", out.json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
