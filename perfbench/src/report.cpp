#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "perfbench/src/bench.hpp"
#include "src/assign/route_io.hpp"
#include "src/assign/validate.hpp"
#include "src/obs/metrics.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

std::vector<double> fastest(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = runs.front();
  for (const std::vector<double>& run : runs) {
    for (std::size_t i = 0; i < out.size() && i < run.size(); ++i) out[i] = std::min(out[i], run[i]);
  }
  return out;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

void Report::note(const std::string& line) { std::fprintf(stderr, "perfbench: %s\n", line.c_str()); }

bool Report::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::string Report::json() const {
  char buf[64];
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += '"' + cpla::obs::json_escape(m.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           cpla::obs::json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

void Report::print_failures() const {
  for (const std::string& f : failures_) std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
}

double counter(const char* name) {
  return static_cast<double>(cpla::obs::metrics().counter(name).value());
}
double hist_sum(const char* name) { return cpla::obs::metrics().histogram(name).sum(); }
double hist_count(const char* name) {
  return static_cast<double>(cpla::obs::metrics().histogram(name).count());
}
void reset_obs() { cpla::obs::metrics().reset(); }

void report_core_layers(Report* report, double n, double optimize_total_ms) {
  double phase_total = 0.0;
  for (const char* ph : {"timing_snapshot", "partition", "solve", "commit", "displace", "sta"}) {
    const double v = hist_sum(("phase.core.flow." + std::string(ph) + ".ms").c_str());
    phase_total += v;
    report->metric("core.flow." + std::string(ph) + "_ms", v / n, "ms");
  }
  // The phases are disjoint scopes inside core::optimize; more phase time
  // than optimize wall time means a double count. 1% absorbs clock skew.
  report->check(phase_total <= optimize_total_ms * 1.01,
                "flow phases exceed the optimize wall time");
  report->metric("core.flow.unattributed_ms", (optimize_total_ms - phase_total) / n, "ms");
  report->metric("core.flow.rounds", counter("core.flow.rounds") / n, "count");
  report->metric("core.flow.partitions", counter("core.flow.partitions") / n, "count");

  const double solves = counter("core.guard.solves");
  const double share = solves > 0 ? 1.0 / solves : 0.0;
  report->metric("core.guard.solves", solves / n, "count");
  report->metric("core.guard.primary_share", counter("core.guard.tier.primary") * share, "ratio");
  report->metric("core.guard.rollback_share", counter("core.guard.commit_rollbacks") * share,
                 "ratio");

  const double sdp_calls = counter("sdp.solve.calls");
  report->metric("sdp.solve.calls", sdp_calls / n, "count");
  report->metric("sdp.solve.iterations", counter("sdp.solve.iterations") / n, "count");
  report->metric("sdp.iterations_per_solve",
                 sdp_calls > 0 ? counter("sdp.solve.iterations") / sdp_calls : 0.0, "count");
  report->metric("sdp.solve.busy_ms", hist_sum("sdp.solve.ms") / n, "ms");
  report->metric("sdp.solve.failures", counter("sdp.solve.failures") / n, "count");
  report->metric("sdp.solve.stalls", counter("sdp.solve.stalls") / n, "count");

  const double factors = counter("la.cholesky.factors");
  report->metric("la.cholesky.factors", factors / n, "count");
  report->metric("la.cholesky.failures", counter("la.cholesky.failures") / n, "count");
  report->metric("la.cholesky.fail_share",
                 factors > 0 ? counter("la.cholesky.failures") / factors : 0.0, "ratio");
  report->metric("la.eigen.calls", counter("la.eigen.calls") / n, "count");
  report->metric("lp.simplex.pivots", counter("lp.simplex.pivots") / n, "count");
  report->metric("ilp.bnb.nodes", counter("ilp.bnb.nodes") / n, "count");

  report->metric("timing.elmore.evals", counter("timing.elmore.evals") / n, "count");
  const double lookups = counter("timing.incremental.hits") + counter("timing.incremental.misses");
  report->metric("timing.incremental.hit_share",
                 lookups > 0 ? counter("timing.incremental.hits") / lookups : 0.0, "ratio");

  const double lagr_calls = counter("lagr.solve.calls");
  report->metric("lagr.solve.calls", lagr_calls / n, "count");
  report->metric("lagr.solve.improved_share",
                 lagr_calls > 0 ? counter("lagr.solve.improved") / lagr_calls : 0.0, "ratio");

  report->metric("sta.update.incremental", counter("sta.update.incremental") / n, "count");
  report->metric("sta.update.dirty_nodes", counter("sta.update.dirty_nodes") / n, "count");
  report->metric("sta.update_ms", hist_sum("phase.sta.update.ms") / n, "ms");
  report->metric("sta.propagate_ms", hist_sum("phase.sta.propagate.ms") / n, "ms");
}

double root_self_ms(const Tracer& tracer, const std::string& root_name, Report* report,
                    const char* workload) {
  double unattributed = 0.0;
  for (int root : tracer.find(root_name)) {
    double self_sum = 0.0;
    for (const auto& [name, v] : tracer.self_times(root)) {
      self_sum += v;
      if (name == root_name) unattributed += v;
    }
    const double root_ms = tracer.duration_ms(root);
    report->check(std::abs(self_sum - root_ms) <= 0.01 * root_ms,
                  std::string(workload) + ": span self times do not add up to the loop time");
  }
  return unattributed;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

core::LaMetrics recompute_metrics(const assign::AssignState& state, const timing::RcTable& rc,
                                  const core::CriticalSet& critical) {
  core::LaMetrics m;
  double sum = 0.0;
  for (int net : critical.nets) {
    const double tcp = timing::compute_timing(state.tree(net), state.layers(net), rc).max_sink_delay;
    sum += tcp;
    m.max_tcp = std::max(m.max_tcp, tcp);
  }
  m.avg_tcp = critical.nets.empty() ? 0.0 : sum / static_cast<double>(critical.nets.size());
  m.via_overflow = state.via_overflow();
  m.via_count = state.via_count();
  m.wire_overflow = state.wire_overflow();
  return m;
}

bool same_metrics(const core::LaMetrics& a, const core::LaMetrics& b) {
  return a.avg_tcp == b.avg_tcp && a.max_tcp == b.max_tcp && a.via_overflow == b.via_overflow &&
         a.via_count == b.via_count && a.wire_overflow == b.wire_overflow;
}

bool never_worse(const core::LaMetrics& before, const core::LaMetrics& after) {
  const double tol = 1.0 + 1e-9;
  return after.avg_tcp <= before.avg_tcp * tol && after.max_tcp <= before.max_tcp * tol &&
         after.wire_overflow + after.via_overflow <= before.wire_overflow + before.via_overflow;
}

std::string validate_netlist(const grid::Design& design, const assign::AssignState& state) {
  std::vector<assign::RoutedNet> nets;
  const int count = std::min(static_cast<int>(design.nets.size()), state.num_nets());
  nets.reserve(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    if (state.tree(n).segs.empty()) continue;  // removed by an ECO edit
    nets.push_back({design.nets[static_cast<std::size_t>(n)].name, n, assign::net_wires(state, n)});
  }
  const assign::ValidationReport report = assign::validate_solution(design, nets);
  if (report.ok) return {};
  return report.errors.empty() ? "validator rejected the solution" : report.errors.front();
}

std::vector<std::vector<int>> layers_of(const assign::AssignState& state) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(state.num_nets()));
  for (int n = 0; n < state.num_nets(); ++n) out[static_cast<std::size_t>(n)] = state.layers(n);
  return out;
}

void restore_layers(assign::AssignState* state, const std::vector<std::vector<int>>& layers) {
  for (int n = 0; n < state->num_nets(); ++n) {
    if (state->layers(n) != layers[static_cast<std::size_t>(n)]) {
      state->set_layers(n, layers[static_cast<std::size_t>(n)]);
    }
  }
}

std::uint64_t fold_hash(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool write_artifact(const Args& args, const std::string& file, const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::ofstream out(args.out_dir + "/" + file);
  out << text;
  return static_cast<bool>(out);
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t run_seed) {
  // splitmix64 finalizer: neighbouring run seeds give unrelated streams.
  std::uint64_t z = base + (run_seed + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void perturb_capacities(grid::Design* design, std::uint64_t run_seed, int edges) {
  cpla::Rng rng(mix_seed(0x5eed, run_seed));
  grid::GridGraph& g = design->grid;
  for (int k = 0; k < edges;) {
    const int layer = static_cast<int>(rng.uniform_int(0, g.num_layers() - 1));
    const int e = static_cast<int>(rng.uniform_int(0, g.num_edges_on_layer(layer) - 1));
    const int cap = g.edge_capacity(layer, e);
    if (cap <= 0) continue;  // blocked or wrong-direction edge: draw again
    g.set_edge_capacity(layer, e, cap + 1);
    ++k;
  }
}

}  // namespace perfbench
