#pragma once

// Shared plumbing of the repository benchmark (cpla_perfbench): run
// arguments, the metric/check report every workload fills, the in-memory
// span tracer, and small measurement helpers. Each workload lives in its own
// translation unit and drives the library only through public calls.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/assign/state.hpp"
#include "src/core/critical.hpp"
#include "src/core/flow.hpp"
#include "src/grid/design.hpp"
#include "src/timing/rc_table.hpp"

namespace perfbench {

namespace assign = cpla::assign;
namespace core = cpla::core;
namespace grid = cpla::grid;
namespace sdp = cpla::sdp;
namespace sta = cpla::sta;
namespace timing = cpla::timing;
using cpla::Result;
using cpla::Status;
using cpla::StatusCode;

/// OpenMP thread count every workload pins for its timed calls. On a few
/// shared cores a second OpenMP thread made the optimize calls slower, not
/// faster, and far noisier: every parallel region waits for the slower of
/// two contended cores. The traced run measures thread scaling on its own
/// (kScalingThreads).
inline constexpr int kThreads = 1;

/// Thread counts of the traced run's scaling measurement, which pins the
/// commit batch to kScalingBatch so every count does the same computation.
inline constexpr int kScalingThreads[] = {1, 2, 4};
inline constexpr int kScalingBatch = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench_out";  // spans and hashes land here
};

// --- Clock ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- Statistics -------------------------------------------------------------

/// Percentile (p in [0, 100]) of an unsorted sample, interpolated linearly
/// between the closest ranks; 0 if empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }
double mean(const std::vector<double>& values);

/// Element-wise minimum of equally long samples: the fastest repeat of each
/// operation. Repeats of one deterministic operation differ only by the
/// machine's noise, which only ever adds time. Empty if `runs` is empty.
std::vector<double> fastest(const std::vector<std::vector<double>>& runs);
inline double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

// --- Report -----------------------------------------------------------------

/// Metrics plus correctness bookkeeping for one run. `check` counts an
/// operation as attempted and, when it fails, as failed with a message.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  /// Counts `n` operations that completed without a contract violation.
  void attempted_ok(long n) { attempted_ += n; }
  void note(const std::string& line);  // free-form finding, printed to stderr

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  bool has_metric(const std::string& name) const;
  double value(const std::string& name) const;
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string json() const;
  void print_failures() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
};

// --- Tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans carry name, start/end (ms since the
/// tracer's epoch), parent span id and request id; they are written as one
/// JSON array when the run ends. A disabled tracer records nothing and
/// costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int id = -1;
    int parent = -1;
    long request = -1;
    int thread = 0;
    bool concurrent = false;  // overlaps its siblings (worker-thread solves)
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording; call only while no span is open.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its id (-1 when disabled). `parent` -1 = the
  /// calling thread's innermost open span.
  int begin(const std::string& name, long request = -1, int parent = -1,
            bool concurrent = false);
  void end(int id);

  /// Self time per span name (duration minus the union of its serial
  /// children), summed over every span under `root` including the root.
  std::vector<std::pair<std::string, double>> self_times(int root) const;
  double duration_ms(int id) const;
  /// Durations / ids of every span named `name` (any parent).
  std::vector<double> durations(const std::string& name) const;
  std::vector<int> find(const std::string& name) const;

  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == span id
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, long request = -1)
      : tracer_(tracer), id_(tracer->begin(name, request)) {}
  ~ScopedSpan() { tracer_->end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- Library probes ---------------------------------------------------------

/// Value of an obs counter / sum of an obs histogram (registers if absent).
double counter(const char* name);
double hist_sum(const char* name);
double hist_count(const char* name);
void reset_obs();

/// Per-layer counters and phase times of the optimize stack (core flow
/// phases, guard, sdp, la, lp/ilp, timing, lagr, sta) read from the obs
/// registry, divided by `n` operations. `optimize_total_ms` is the summed
/// wall time of the optimize calls the registry covers; the flow phases are
/// checked to fit inside it and the remainder is core.flow.unattributed_ms.
void report_core_layers(Report* report, double n, double optimize_total_ms);

/// Sums the self times under every span named `root_name`, checks that
/// each tree adds back up to its root (within 1%), and returns the roots'
/// own self time: the part of the loop no traced call accounts for.
double root_self_ms(const Tracer& tracer, const std::string& root_name, Report* report,
                    const char* workload);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Avg(Tcp)/Max(Tcp) recomputed from scratch with timing::compute_timing.
core::LaMetrics recompute_metrics(const assign::AssignState& state, const timing::RcTable& rc,
                                  const core::CriticalSet& critical);

/// True when `a` and `b` carry bit-identical Table-2 values.
bool same_metrics(const core::LaMetrics& a, const core::LaMetrics& b);

/// Never-worse: `after` is no worse than `before` in Avg/Max(Tcp) and
/// total overflow (the core::optimize contract tolerance).
bool never_worse(const core::LaMetrics& before, const core::LaMetrics& after);

/// assign::validate_solution over the design's netlist nets, from scratch.
/// Returns an empty string when valid, else the first error.
std::string validate_netlist(const grid::Design& design, const assign::AssignState& state);

/// Layer vectors of every net (entry snapshots, control copies).
std::vector<std::vector<int>> layers_of(const assign::AssignState& state);
void restore_layers(assign::AssignState* state, const std::vector<std::vector<int>>& layers);

/// FNV-1a fold of a 64-bit value into a running hash.
std::uint64_t fold_hash(std::uint64_t h, std::uint64_t v);

/// Writes `text` to `<out_dir>/<file>` (creating the directory).
bool write_artifact(const Args& args, const std::string& file, const std::string& text);

/// Derives a generator seed deterministically from the run seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t run_seed);

/// The run seed's input variation on a fixed design: raises the wire
/// capacity of `edges` seed-chosen edges by one track.
void perturb_capacities(grid::Design* design, std::uint64_t run_seed, int edges);

// --- Workloads --------------------------------------------------------------

void run_flow_sdp(const Args& args, Report* report, Tracer* tracer);
void run_flow_lagr_sta(const Args& args, Report* report, Tracer* tracer);
void run_eco_edits(const Args& args, Report* report, Tracer* tracer);
void run_serve_sessions(const Args& args, Report* report, Tracer* tracer);

}  // namespace perfbench
