#pragma once

// Shared helpers for the paper-reproduction harnesses (Table 2, Figs 1,
// 7, 8, 9). Each harness is a standalone binary that prints the same rows
// or series the paper reports, and — with --metrics-out <file> — emits a
// machine-readable BENCH_<name>.json artifact for CI:
//
//   { "schema": "cpla-bench-v1", "bench": ..., "git_rev": ..., "threads": N,
//     "seed": S, "phases": {"name": {"wall_ms": ...}}, "values": {...},
//     "metrics": { counters/gauges/histograms from the obs registry } }
//
// Common flags (parse_bench_args strips them, leaving the rest untouched
// so google-benchmark binaries can forward argc/argv):
//   --metrics-out <file>   write the JSON artifact
//   --seed <n>             perturb the synthetic-suite RNG (default 1 =
//                          the canonical suite); always recorded in output
//   --quick                reduced workload (binaries that support it)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/assign/route_io.hpp"
#include "src/assign/validate.hpp"
#include "src/core/critical.hpp"
#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/tila.hpp"
#include "src/gen/synth.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/table.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef CPLA_GIT_REV
#define CPLA_GIT_REV "unknown"
#endif

namespace cpla::bench {

struct FlowOutcome {
  core::LaMetrics metrics;
  double seconds = 0.0;
};

struct BenchArgs {
  std::string metrics_out;      // empty = no artifact
  std::uint64_t seed = 1;       // 1 = canonical suite instances
  bool quick = false;
};

/// Strips the harness flags from argc/argv in place (so remaining args can
/// be handed to google-benchmark or bench-specific parsing).
inline BenchArgs parse_bench_args(int* argc, char** argv) {
  BenchArgs out;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--metrics-out") == 0 && r + 1 < *argc) {
      out.metrics_out = argv[++r];
    } else if (std::strcmp(argv[r], "--seed") == 0 && r + 1 < *argc) {
      out.seed = std::strtoull(argv[++r], nullptr, 10);
    } else if (std::strcmp(argv[r], "--quick") == 0) {
      out.quick = true;
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return out;
}

/// Collects per-phase wall times and named scalar results, then writes the
/// schema-stable JSON artifact (merged with the global metrics registry).
class BenchReport {
 public:
  BenchReport(std::string bench_name, const BenchArgs& args)
      : bench_(std::move(bench_name)), args_(args) {}

  void record_phase(const std::string& name, double wall_ms) { phases_[name] = wall_ms; }
  void record_value(const std::string& name, double value) { values_[name] = value; }

  /// Convenience: one flow run = one phase (wall time) + its quality values.
  void record_flow(const std::string& prefix, const FlowOutcome& out) {
    record_phase(prefix, out.seconds * 1e3);
    record_value(prefix + ".avg_tcp", out.metrics.avg_tcp);
    record_value(prefix + ".max_tcp", out.metrics.max_tcp);
    record_value(prefix + ".via_overflow", static_cast<double>(out.metrics.via_overflow));
    record_value(prefix + ".via_count", static_cast<double>(out.metrics.via_count));
  }

  static int thread_count() {
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
  }

  std::string to_json() const {
    std::string out = "{\"schema\":\"cpla-bench-v1\"";
    out += ",\"bench\":\"" + obs::json_escape(bench_) + '"';
    out += ",\"git_rev\":\"" + obs::json_escape(CPLA_GIT_REV) + '"';
    out += ",\"threads\":" + std::to_string(thread_count());
    out += ",\"seed\":" + std::to_string(args_.seed);
    out += ",\"phases\":{";
    bool first = true;
    for (const auto& [name, ms] : phases_) {
      if (!first) out += ',';
      first = false;
      out += '"' + obs::json_escape(name) + "\":{\"wall_ms\":" + obs::json_number(ms) + '}';
    }
    out += "},\"values\":{";
    first = true;
    for (const auto& [name, v] : values_) {
      if (!first) out += ',';
      first = false;
      out += '"' + obs::json_escape(name) + "\":" + obs::json_number(v);
    }
    out += "},\"metrics\":" + obs::metrics().to_json();
    out += '}';
    return out;
  }

  /// Writes the artifact if --metrics-out was given. Returns false (and
  /// logs) on I/O failure so benches can propagate a nonzero exit.
  bool write() const {
    if (args_.metrics_out.empty()) return true;
    std::FILE* f = std::fopen(args_.metrics_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write metrics to %s\n", args_.metrics_out.c_str());
      return false;
    }
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("metrics written to %s\n", args_.metrics_out.c_str());
    return true;
  }

 private:
  std::string bench_;
  BenchArgs args_;
  std::map<std::string, double> phases_;
  std::map<std::string, double> values_;
};

struct BenchRun {
  core::Prepared prepared;
  core::CriticalSet critical;

  /// Baseline copy of the initial assignment (so TILA and CPLA start from
  /// identical states).
  std::vector<std::vector<int>> initial_layers;

  void snapshot() {
    initial_layers.clear();
    for (int n = 0; n < prepared.state->num_nets(); ++n) {
      initial_layers.push_back(prepared.state->layers(n));
    }
  }
  void restore() {
    for (int n = 0; n < prepared.state->num_nets(); ++n) {
      prepared.state->set_layers(n, initial_layers[n]);
    }
  }
};

/// Builds a run from an explicit generator spec (used by --quick smoke
/// instances and seed sweeps).
inline BenchRun make_run_spec(gen::SynthSpec spec, double critical_ratio) {
  BenchRun run{core::prepare(gen::generate(spec)), {}, {}};
  run.critical = core::select_critical(*run.prepared.state, *run.prepared.rc, critical_ratio);
  run.snapshot();
  return run;
}

/// Builds a named suite run. `seed` perturbs the instance deterministically;
/// the default (1) reproduces the canonical suite exactly, and the value
/// used always lands in the BENCH_*.json artifact via BenchReport.
inline BenchRun make_run(const std::string& bench_name, double critical_ratio,
                         std::uint64_t seed = 1) {
  gen::SynthSpec spec = gen::suite_spec(bench_name);
  spec.seed += (seed - 1) * 0x9e3779b97f4a7c15ull;
  return make_run_spec(std::move(spec), critical_ratio);
}

inline FlowOutcome run_tila_flow(BenchRun* run, const core::TilaOptions& opt = {}) {
  run->restore();
  WallTimer timer;
  core::run_tila(run->prepared.state.get(), *run->prepared.rc, run->critical, opt);
  FlowOutcome out;
  out.seconds = timer.seconds();
  out.metrics = core::compute_metrics(*run->prepared.state, *run->prepared.rc, run->critical);
  return out;
}

inline FlowOutcome run_cpla_flow(BenchRun* run, const core::CplaOptions& opt = {}) {
  run->restore();
  WallTimer timer;
  core::run_cpla(run->prepared.state.get(), *run->prepared.rc, run->critical, opt);
  FlowOutcome out;
  out.seconds = timer.seconds();
  out.metrics = core::compute_metrics(*run->prepared.state, *run->prepared.rc, run->critical);
  return out;
}

/// Checks a landed state with code that did not produce it: the
/// independent validator over every net's wires, and Avg/Max(Tcp)
/// recomputed net by net with timing::critical_delay, which must equal
/// `reported` exactly. Returns an empty string when both hold, else the
/// first failure.
inline std::string check_landed_state(const BenchRun& run, const core::LaMetrics& reported) {
  const assign::AssignState& state = *run.prepared.state;
  const grid::Design& design = *run.prepared.design;
  std::vector<assign::RoutedNet> nets;
  for (int n = 0; n < state.num_nets(); ++n) {
    if (state.tree(n).segs.empty()) continue;
    nets.push_back({design.nets[static_cast<std::size_t>(n)].name, n, assign::net_wires(state, n)});
  }
  const assign::ValidationReport report = assign::validate_solution(design, nets);
  if (!report.ok) {
    return "validator: " +
           (report.errors.empty() ? std::string("rejected the solution") : report.errors.front());
  }
  double sum = 0.0;
  double max_tcp = 0.0;
  for (int net : run.critical.nets) {
    const double tcp = timing::critical_delay(state.tree(net), state.layers(net), *run.prepared.rc);
    sum += tcp;
    max_tcp = std::max(max_tcp, tcp);
  }
  const double avg_tcp =
      run.critical.nets.empty() ? 0.0 : sum / static_cast<double>(run.critical.nets.size());
  if (avg_tcp != reported.avg_tcp || max_tcp != reported.max_tcp) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "recomputed Avg/Max %.17g/%.17g != reported %.17g/%.17g",
                  avg_tcp, max_tcp, reported.avg_tcp, reported.max_tcp);
    return buf;
  }
  return {};
}

}  // namespace cpla::bench
