// eco_edits and serve_sessions: the incremental engine behind one
// closed-loop client (EcoSession) and behind two concurrent clients of an
// in-process EcoService with journal and checkpoints on.
//
// Both run in passes of a fixed size: each pass sets the engine up afresh
// and streams the same seeded edits, and passes repeat while the next one
// fits in the run's time. eco_edits times each resolve once per pass and
// reports it at its fastest pass (the passes do the same work; the rest is
// the machine's noise); serve_sessions pools its samples, since a client's
// latency depends on the interleaving. Either way the distribution a run
// reports does not depend on how many passes a fast or slow machine gets
// through.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <tuple>

#include "perfbench/src/bench.hpp"
#include "src/core/pipeline.hpp"
#include "src/eco/delta.hpp"
#include "src/eco/eco_session.hpp"
#include "src/eco/edit_script.hpp"
#include "src/gen/synth.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/service.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace eco = cpla::eco;
namespace gen = cpla::gen;
namespace serve = cpla::serve;

namespace {

constexpr int kMinPasses = 3;
constexpr int kReferenceReps = 3;  // from-scratch optimizes behind optimize_s, per pass

/// Another pass only if one more, at the pace of the last, still ends
/// inside the run's time (and always until kMinPasses).
bool another_pass(int passes, Clock::time_point start, double last_pass_ms, double seconds) {
  return passes < kMinPasses || ms_since(start) + last_pass_ms <= seconds * 1e3;
}

/// optimize_s: a from-scratch core::optimize of a fixed converged state,
/// the cost a resolve would pay without the ECO caches. A few repeats run
/// after every pass, so the samples spread over the run; the fastest
/// counts. Every repeat must land on the first one's Table-2 values.
struct Reference {
  core::Prepared prep;
  core::CriticalSet critical;
  std::vector<std::vector<int>> converged;
  core::CplaOptions flow;
  std::vector<double> ms;
  core::LaMetrics first{};

  void time(Report* report, const std::string& workload) {
    for (int rep = 0; rep < kReferenceReps; ++rep) {
      restore_layers(prep.state.get(), converged);
      const Clock::time_point t0 = Clock::now();
      const core::OptimizeResult r = core::optimize(prep.state.get(), *prep.rc, critical, flow);
      ms.push_back(ms_since(t0));
      report->check(r.status.is_ok(), workload + ": reference optimize failed");
      if (ms.size() == 1) first = r.result.metrics;
      report->check(same_metrics(first, r.result.metrics),
                    workload + ": reference optimize is not deterministic");
    }
  }
  double fastest_s() const { return *std::min_element(ms.begin(), ms.end()) / 1e3; }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Set-up layer numbers: medians over the run's set-ups.
struct SetupLayers {
  std::vector<double> prepare_ms, select_ms;
  double assign_ms = 0.0, reroutes = 0.0;  // summed; divided by the set-up count

  void add_registry() {
    assign_ms += hist_sum("phase.core.pipeline.initial_assign.ms");
    reroutes += counter("route.ripup.reroutes");
  }
  void report(Report* r) const {
    const double n = static_cast<double>(std::max<std::size_t>(1, prepare_ms.size()));
    r->metric("route.prepare_s", median(prepare_ms) / 1e3, "s");
    r->metric("route.ripup_reroutes", reroutes / n, "count");
    r->metric("assign.initial_assign_ms", assign_ms / n, "ms");
    r->metric("core.critical.select_ms", median(select_ms), "ms");
  }
};

/// Eco-layer cache and dirty-set metrics per resolve, plus the identity
/// that every clean partition makes exactly one cache lookup.
void report_eco_cache(Report* report, double resolves, const char* workload) {
  const double lookups = counter("eco.cache.hits") + counter("eco.cache.misses") +
                         counter("eco.cache.lookup_failures");
  const double dirty = counter("eco.partitions.dirty");
  const double clean = counter("eco.partitions.clean");
  report->check(lookups == clean, std::string(workload) + ": cache hits + misses != lookups");
  report->metric("eco.cache.lookups", lookups / resolves, "count");
  report->metric("eco.cache.hit_share", lookups > 0 ? counter("eco.cache.hits") / lookups : 0.0,
                 "ratio");
  report->metric("eco.cache.evictions", counter("eco.cache.evictions") / resolves, "count");
  report->metric("eco.partitions.dirty_share", dirty + clean > 0 ? dirty / (dirty + clean) : 0.0,
                 "ratio");
  report->metric("eco.resolve.fallbacks", counter("eco.resolve.fallbacks") / resolves, "count");
}

// ============================================================================
// eco_edits
// ============================================================================

constexpr int kEcoEditsPerResolve = 3;  // an edit group, then one resolve
constexpr int kEcoResolvesPerPass = 100;  // >= 10 resolves beyond p90
constexpr int kEcoEditsPerPass = kEcoEditsPerResolve * kEcoResolvesPerPass;
constexpr int kEcoControlEvery = 10;  // from-scratch control check cadence (first pass)

/// The ECO design (the eco_incremental bench instance). The run seed drives
/// the edit script only: perturbing this small design's capacities moves
/// its critical set, and with it the cost of every resolve, too much.
grid::Design eco_design() {
  gen::SynthSpec spec;
  spec.name = "eco";
  spec.xsize = spec.ysize = 20;
  spec.num_nets = 200;
  spec.num_layers = 6;
  spec.seed = 7;
  return gen::generate(spec);
}

eco::EcoOptions eco_options() {
  eco::EcoOptions opt;
  opt.critical_ratio = 0.03;
  opt.cache_capacity = 8192;
  return opt;
}

struct EcoRig {
  core::Prepared live;
  std::unique_ptr<eco::EcoSession> session;
};

/// Set-up: prepare, open the session (critical selection), and run the
/// entry resolve that converges the design and warms the caches.
EcoRig eco_set_up(const grid::Design& base, Tracer* tracer, std::vector<double>* setup_ms,
                  SetupLayers* layers) {
  EcoRig rig;
  grid::Design copy = base;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core::prepare");
    rig.live = core::prepare(std::move(copy));
  }
  layers->prepare_ms.push_back(ms_since(t0));
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(tracer, "eco::EcoSession");  // selects the critical set
    rig.session = std::make_unique<eco::EcoSession>(rig.live.design.get(), rig.live.state.get(),
                                                    rig.live.rc.get(), eco_options());
  }
  layers->select_ms.push_back(ms_since(t1));
  {
    ScopedSpan span(tracer, "eco::EcoSession::resolve");
    (void)rig.session->resolve();
  }
  setup_ms->push_back(ms_since(t0));
  layers->add_registry();
  return rig;
}

struct EcoStream {
  std::vector<double> resolve_ms, apply_us, control_ms;
  std::vector<double> group_ms;  // per resolve: its edits' applies + the resolve
  int edits = 0;
  double avg_ratio_sum = 0.0, max_ratio_sum = 0.0;
  int resolves = 0;
  std::uint64_t hash = 0;  // final state
  double via_count = 0.0, overflow = 0.0;  // final state
};

/// Streams the script through a fresh session in groups of
/// kEcoEditsPerResolve edits, resolving after each group. With a control
/// copy, every kEcoControlEvery-th resolve is replayed as a from-scratch
/// core::optimize and compared bit for bit.
EcoStream eco_script(EcoRig* rig, const std::vector<eco::Delta>& script, core::Prepared* control,
                     core::CriticalSet* control_critical, Report* report, Tracer* tracer) {
  EcoStream s;
  eco::EcoSession& session = *rig->session;
  const eco::EcoOptions opt = eco_options();
  for (int i = 0; i < kEcoResolvesPerPass; ++i) {
    double apply_ms = 0.0;
    for (int k = 0; k < kEcoEditsPerResolve; ++k) {
      const eco::Delta& delta = script[static_cast<std::size_t>(i * kEcoEditsPerResolve + k)];
      const Clock::time_point t0 = Clock::now();
      Result<int> applied = Status(StatusCode::kInternal, "not applied");
      {
        ScopedSpan span(tracer, "eco::EcoSession::apply", i);
        applied = session.apply(delta);
      }
      const double ms = ms_since(t0);
      apply_ms += ms;
      s.apply_us.push_back(ms * 1e3);
      report->check(applied.is_ok(), "eco_edits: delta failed to apply");
      if (control != nullptr) {
        report->check(eco::apply_delta(delta, control->design.get(), control->state.get(),
                                       control_critical)
                          .is_ok(),
                      "eco_edits: delta failed to apply to the control copy");
      }
    }
    const bool control_step = control != nullptr && (i + 1) % kEcoControlEvery == 0;
    // The control starts from the session's exact pre-resolve state.
    if (control_step) restore_layers(control->state.get(), layers_of(*rig->live.state));
    const core::LaMetrics before =
        recompute_metrics(*rig->live.state, *rig->live.rc, session.critical());

    const Clock::time_point t1 = Clock::now();
    core::OptimizeResult res;
    {
      ScopedSpan span(tracer, "eco::EcoSession::resolve", i);
      res = session.resolve();
    }
    const double resolve_ms = ms_since(t1);
    s.resolve_ms.push_back(resolve_ms);
    s.group_ms.push_back(apply_ms + resolve_ms);
    s.edits += kEcoEditsPerResolve;
    ++s.resolves;

    const core::LaMetrics after =
        recompute_metrics(*rig->live.state, *rig->live.rc, session.critical());
    report->check(res.status.is_ok(), "eco_edits: resolve status not ok");
    report->check(same_metrics(res.result.metrics, after),
                  "eco_edits: reported Tcp differs from the recomputation");
    report->check(never_worse(before, after), "eco_edits: resolve worse than its entry state");
    s.avg_ratio_sum += after.avg_tcp / before.avg_tcp;
    s.max_ratio_sum += after.max_tcp / before.max_tcp;

    if (control_step) {
      const Clock::time_point t2 = Clock::now();
      const core::OptimizeResult ref =
          core::optimize(control->state.get(), *control->rc, *control_critical, opt.flow);
      s.control_ms.push_back(ms_since(t2));
      bool identical = ref.status.is_ok() && same_metrics(ref.result.metrics, res.result.metrics);
      for (int n = 0; identical && n < control->state->num_nets(); ++n) {
        identical = control->state->layers(n) == rig->live.state->layers(n);
      }
      report->check(identical, "eco_edits: resolve differs from a from-scratch optimize");
    }
  }
  s.hash = serve::hash_state(*rig->live.state, session.critical());
  s.via_count = static_cast<double>(rig->live.state->via_count());
  s.overflow = static_cast<double>(rig->live.state->wire_overflow() + rig->live.state->via_overflow());
  const std::string err = validate_netlist(*rig->live.design, *rig->live.state);
  report->check(err.empty(), "eco_edits: validator: " + err);
  return s;
}

/// One pass on a fresh session: set-up, then the registry is reset (so the
/// pass's layer numbers cover the edits alone) and the script streams under
/// a "measure" root span. With `entry`, the script also runs against a
/// control copy at that entry state.
EcoStream eco_pass(const grid::Design& base, const std::vector<eco::Delta>& script,
                   const std::vector<std::vector<int>>* entry, const core::CriticalSet* critical,
                   Report* report, Tracer* tracer, std::vector<double>* setup_ms,
                   SetupLayers* setup) {
  reset_obs();
  EcoRig rig = eco_set_up(base, tracer, setup_ms, setup);
  core::Prepared control;
  core::CriticalSet control_critical;
  if (entry != nullptr) {
    control = core::prepare(grid::Design(base));
    restore_layers(control.state.get(), *entry);
    control_critical = *critical;
  }
  reset_obs();
  const int root = tracer->begin("measure");
  EcoStream s = eco_script(&rig, script, entry != nullptr ? &control : nullptr,
                           entry != nullptr ? &control_critical : nullptr, report, tracer);
  tracer->end(root);
  return s;
}

/// Per-layer numbers of one pass (the registry was reset after its set-up)
/// and the pass's accounting identities.
void eco_report_layers(Report* report, const EcoStream& s) {
  const double n = s.resolves;
  double optimize_ms = 0.0;  // resolves and control optimizes both run core::optimize
  for (double v : s.resolve_ms) optimize_ms += v;
  for (double v : s.control_ms) optimize_ms += v;
  report_core_layers(report, n, optimize_ms);
  report_eco_cache(report, n, "eco_edits");
  report->metric("eco.resolve.busy_ms", mean(s.resolve_ms), "ms");
  report->metric("eco.apply_p50_us", median(s.apply_us), "us");
}

}  // namespace

void run_eco_edits(const Args& args, Report* report, Tracer* tracer) {
  const grid::Design base = eco_design();
  std::vector<double> setup_ms;
  SetupLayers setup;
  tracer->set_enabled(false);  // the first pass is the untraced baseline

  reset_obs();
  // The edit script is generated against the converged entry state.
  const EcoRig rig = eco_set_up(base, tracer, &setup_ms, &setup);
  const std::vector<eco::Delta> script =
      eco::make_edit_script(rig.session->state(), rig.session->critical(),
                            {.count = kEcoEditsPerPass, .seed = args.seed});
  report->check(static_cast<int>(script.size()) == kEcoEditsPerPass,
                "eco_edits: edit script came up short");
  const core::CriticalSet critical = rig.session->critical();
  const std::vector<std::vector<int>> entry = layers_of(*rig.live.state);
  // optimize_s times the converged entry state on a copy of its own.
  Reference reference{core::prepare(grid::Design(base)), critical, entry, eco_options().flow,
                      {}, {}};
  const Clock::time_point start = Clock::now();
  // First pass: a control copy at the same entry state, kept in lockstep by
  // apply_delta, checks the resolves against from-scratch optimizes.
  const EcoStream first =
      eco_pass(base, script, &entry, &critical, report, tracer, &setup_ms, &setup);
  eco_report_layers(report, first);
  report->check(!first.control_ms.empty(), "eco_edits: no control check ran");
  write_artifact(args, args.trace ? "hash_eco_edits_traced.txt" : "hash_eco_edits.txt",
                 "eco_edits seed=" + std::to_string(args.seed) + " hash=" + hex(first.hash) + "\n");
  report->metric("assign.overflow", first.overflow, "count");

  if (!args.trace) {
    // More passes, each from a fresh set-up, while the time allows; every
    // pass must land on the first pass's bits.
    std::vector<EcoStream> passes = {first};
    reference.time(report, "eco_edits");
    double last_ms = ms_since(start);
    while (another_pass(static_cast<int>(passes.size()), start, last_ms, args.seconds)) {
      const Clock::time_point t0 = Clock::now();
      passes.push_back(
          eco_pass(base, script, nullptr, nullptr, report, tracer, &setup_ms, &setup));
      eco_report_layers(report, passes.back());  // for the identities
      report->check(passes.back().hash == first.hash, "eco_edits: repeated pass is not deterministic");
      reference.time(report, "eco_edits");
      last_ms = ms_since(t0);
    }
    std::vector<std::vector<double>> resolve_runs, group_runs;
    for (const EcoStream& p : passes) {
      resolve_runs.push_back(p.resolve_ms);
      group_runs.push_back(p.group_ms);
    }
    const std::vector<double> resolve_ms = fastest(resolve_runs);
    report->metric("setup_s", median(setup_ms) / 1e3, "s");
    report->metric("optimize_s", reference.fastest_s(), "s");
    report->metric("resolve_p50_ms", percentile(resolve_ms, 50.0), "ms");
    report->metric("resolve_p90_ms", percentile(resolve_ms, 90.0), "ms");
    report->metric("ops_per_s", first.edits / (sum(fastest(group_runs)) / 1e3), "1/s");
    report->metric("avg_tcp_ratio", first.avg_ratio_sum / first.resolves, "ratio");
    report->metric("max_tcp_ratio", first.max_ratio_sum / first.resolves, "ratio");
    report->metric("via_count", first.via_count, "count");
    report->metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: a fresh session replays the same edits with spans on and no
  // control copy, so the registry sees only the session's own work.
  tracer->set_enabled(true);
  const EcoStream t = eco_pass(base, script, nullptr, nullptr, report, tracer, &setup_ms, &setup);
  report->check(t.hash == first.hash, "eco_edits: tracing changed the result");
  eco_report_layers(report, t);
  setup.report(report);
  report->metric("trace.unattributed_ms",
                 root_self_ms(*tracer, "measure", report, "eco_edits") / t.resolves, "ms");
  report->metric("trace.overhead_share",
                 (median(t.resolve_ms) - median(first.resolve_ms)) / median(first.resolve_ms),
                 "ratio");
}

// ============================================================================
// serve_sessions
// ============================================================================

namespace {

constexpr int kClients = 2;
constexpr int kSyncEvery = 2;       // edits per durability barrier
constexpr int kResolveEvery = 4;    // edits per resolve of client 0; client c adds c
                                    // (unequal cadences keep the clients out of lockstep)
constexpr int kClientEdits = 150;   // per client and pass: >= 30 resolves, 75 syncs
constexpr int kWarmupEdits = 12;

/// The served design (the eco_serve bench instance). The run seed drives
/// the client scripts only, as for eco_edits.
grid::Design serve_design() {
  gen::SynthSpec spec;
  spec.name = "serve";
  spec.xsize = spec.ysize = 16;
  spec.num_nets = 140;
  spec.num_layers = 6;
  spec.seed = 11;
  return gen::generate(spec);
}

serve::ServeOptions serve_options(const std::string& dir) {
  serve::ServeOptions opt;
  opt.eco.critical_ratio = 0.03;
  opt.journal_path = dir + "/journal.wal";
  opt.checkpoint_path = dir + "/state.ckpt";
  opt.checkpoint_every = 4;
  opt.max_sessions = kClients + 1;
  // Off, so applied == submitted exactly (coalescing depends on batching).
  opt.coalesce = false;
  opt.max_queue = static_cast<std::size_t>(kClients * kClientEdits + kWarmupEdits + 64);
  return opt;
}

/// Capacity raises over the original capacities: warm-up edits on the top
/// row, client c on rows y with y % kClients == c below it, so clients never
/// write the same edge and every edge stays at or above its entry capacity.
/// Client edits land on edges under the entry critical nets' horizontal
/// wire, so every resolve has partitions to re-solve.
struct ServeScripts {
  std::vector<eco::Delta> warmup;
  std::vector<std::vector<eco::Delta>> clients;
};

ServeScripts serve_scripts(const grid::Design& design, double critical_ratio,
                           std::uint64_t seed) {
  const auto& g = design.grid;
  int h_layer = 0;
  while (!g.is_horizontal(h_layer)) ++h_layer;
  const int top = g.ysize() - 1;
  ServeScripts out;
  for (int i = 0; i < kWarmupEdits; ++i) {
    const int x = (i * 5) % (g.xsize() - 1);
    const int cap = g.edge_capacity(h_layer, g.h_edge_id(x, top));
    out.warmup.push_back(eco::Delta::capacity_adjusted(h_layer, x, top, cap + 1 + i % 3));
  }
  // Edges under critical wire, per client row parity (input making: the
  // entry state is prepared here once, outside every timed region).
  const core::Prepared probe = core::prepare(grid::Design(design));
  const core::CriticalSet critical =
      core::select_critical(*probe.state, *probe.rc, critical_ratio);
  std::vector<std::vector<std::pair<int, int>>> edges(kClients);
  for (int net : critical.nets) {
    for (const cpla::route::Segment& seg : probe.state->tree(net).segs) {
      if (!seg.horizontal || seg.a.y >= top) continue;
      for (int x = std::min(seg.a.x, seg.b.x); x < std::max(seg.a.x, seg.b.x); ++x) {
        edges[static_cast<std::size_t>(seg.a.y % kClients)].emplace_back(x, seg.a.y);
      }
    }
  }
  cpla::Rng rng(mix_seed(23, seed));
  out.clients.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    const auto& pool = edges[static_cast<std::size_t>(c)];
    for (int i = 0; i < kClientEdits; ++i) {
      int x = 0, y = 0;
      if (pool.empty()) {  // no critical wire on this parity: any edge of it
        x = static_cast<int>(rng.uniform_int(0, g.xsize() - 2));
        y = c + kClients * static_cast<int>(rng.uniform_int(0, (top - 1 - c) / kClients));
      } else {
        std::tie(x, y) = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      }
      const int cap = g.edge_capacity(h_layer, g.h_edge_id(x, y));
      out.clients[static_cast<std::size_t>(c)].push_back(eco::Delta::capacity_adjusted(
          h_layer, x, y, cap + 1 + static_cast<int>(rng.uniform_int(0, 3))));
    }
  }
  return out;
}

struct ServeRig {
  core::Prepared live;
  std::unique_ptr<serve::EcoService> service;  // destroyed (stopped) before `live`
  int warm_session = -1;
  core::LaMetrics entry;
};

/// Set-up: prepare, construct + start the service (fresh journal), open the
/// warm-up session, submit the warm-up edits and run the entry resolve.
ServeRig serve_set_up(const grid::Design& base, const ServeScripts& scripts,
                      const std::string& dir, Tracer* tracer, Report* report,
                      std::vector<double>* setup_ms, SetupLayers* layers) {
  ServeRig rig;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  grid::Design copy = base;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core::prepare");
    rig.live = core::prepare(std::move(copy));
  }
  layers->prepare_ms.push_back(ms_since(t0));
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(tracer, "serve::EcoService::start");  // selects the critical set
    rig.service = std::make_unique<serve::EcoService>(rig.live.design.get(), rig.live.state.get(),
                                                      rig.live.rc.get(), serve_options(dir));
    report->check(rig.service->start().is_ok(), "serve_sessions: service start failed");
  }
  layers->select_ms.push_back(ms_since(t1));
  const Result<int> session = rig.service->open_session();
  report->check(session.is_ok(), "serve_sessions: cannot open the warm-up session");
  rig.warm_session = session.is_ok() ? session.value() : -1;
  for (const eco::Delta& d : scripts.warmup) {
    report->check(rig.service->submit(rig.warm_session, d).is_ok(),
                  "serve_sessions: warm-up edit shed");
  }
  {
    ScopedSpan span(tracer, "serve::EcoService::resolve");
    const serve::ResolveOutcome entry = rig.service->resolve(rig.warm_session);
    report->check(entry.status.is_ok(), "serve_sessions: entry resolve failed");
    rig.entry = entry.metrics;
  }
  setup_ms->push_back(ms_since(t0));
  layers->add_registry();
  return rig;
}

struct ClientLog {
  std::vector<double> submit_us, read_us, sync_ms, resolve_ms;
  long submits = 0, failures = 0;
  std::vector<core::LaMetrics> outcomes;
};

struct ServeLoad {
  double wall_s = 0.0;
  long submits = 0, failures = 0;
  std::vector<core::LaMetrics> outcomes;
  std::vector<double> resolve_ms, sync_ms, submit_us, read_us;
};

/// The clients' closed loops: submit, read the snapshot, sync every
/// kSyncEvery edits and resolve every kResolveEvery edits.
ServeLoad serve_load(ServeRig* rig, const ServeScripts& scripts, Tracer* tracer) {
  std::vector<ClientLog> logs(kClients);
  serve::EcoService& service = *rig->service;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      const ScopedSpan client_span(tracer, "client");
      const Result<int> session = service.open_session();
      if (!session.is_ok()) {
        ++log.failures;
        return;
      }
      const auto& script = scripts.clients[static_cast<std::size_t>(c)];
      for (std::size_t e = 0; e < script.size(); ++e) {
        const long request = static_cast<long>(c) * 1000000 + static_cast<long>(e);
        Clock::time_point t0 = Clock::now();
        {
          ScopedSpan span(tracer, "serve::EcoService::submit", request);
          if (!service.submit(session.value(), script[e]).is_ok()) ++log.failures;
        }
        ++log.submits;
        log.submit_us.push_back(ms_since(t0) * 1e3);
        t0 = Clock::now();
        {
          ScopedSpan span(tracer, "serve::EcoService::snapshot", request);
          if (service.snapshot() == nullptr) ++log.failures;
        }
        log.read_us.push_back(ms_since(t0) * 1e3);
        if ((e + 1) % kSyncEvery == 0) {
          t0 = Clock::now();
          ScopedSpan span(tracer, "serve::EcoService::sync", request);
          if (!service.sync(session.value()).is_ok()) ++log.failures;
          log.sync_ms.push_back(ms_since(t0));
        }
        if ((e + 1) % (kResolveEvery + c) == 0) {
          t0 = Clock::now();
          ScopedSpan span(tracer, "serve::EcoService::resolve", request);
          const serve::ResolveOutcome out = service.resolve(session.value());
          log.resolve_ms.push_back(ms_since(t0));
          if (out.status.is_ok()) {
            log.outcomes.push_back(out.metrics);
          } else {
            ++log.failures;
          }
        }
      }
      service.close_session(session.value());
    });
  }
  for (std::thread& t : threads) t.join();
  ServeLoad load;
  load.wall_s = ms_since(start) / 1e3;
  for (const ClientLog& log : logs) {
    load.submits += log.submits;
    load.failures += log.failures;
    load.outcomes.insert(load.outcomes.end(), log.outcomes.begin(), log.outcomes.end());
    load.resolve_ms.insert(load.resolve_ms.end(), log.resolve_ms.begin(), log.resolve_ms.end());
    load.sync_ms.insert(load.sync_ms.end(), log.sync_ms.begin(), log.sync_ms.end());
    load.submit_us.insert(load.submit_us.end(), log.submit_us.begin(), log.submit_us.end());
    load.read_us.insert(load.read_us.end(), log.read_us.begin(), log.read_us.end());
  }
  return load;
}

/// Settles the pass (final resolve), stops the service and proves it back:
/// bit-exact Tcp, never-worse, the validator, the submit accounting
/// identity and, with `replay`, the journal replay hash. Returns the final
/// metrics.
core::LaMetrics serve_finish(ServeRig* rig, const ServeLoad& load, const grid::Design& base,
                             const std::string& dir, bool replay, Report* report) {
  serve::EcoService& service = *rig->service;
  report->check(load.failures == 0, "serve_sessions: client operation failed or was shed");
  for (const core::LaMetrics& m : load.outcomes) {
    report->check(never_worse(rig->entry, m), "serve_sessions: resolve worse than the entry");
  }
  const serve::ResolveOutcome fin = service.resolve(rig->warm_session);
  report->check(fin.status.is_ok(), "serve_sessions: final resolve failed");
  service.close_session(rig->warm_session);
  const std::uint64_t hash = service.snapshot()->hash;
  const core::LaMetrics published = service.snapshot()->metrics;
  const serve::ServeStats stats = service.stats();
  service.stop();

  // Accounting identity: every client submit is accepted or shed, and
  // every accepted edit is applied, rejected or coalesced.
  const long client_submits = load.submits + kWarmupEdits;
  report->check(static_cast<long>(stats.submitted + stats.shed) == client_submits &&
                    stats.submitted == stats.applied + stats.rejected + stats.coalesced,
                "serve_sessions: submitted != applied + rejected + coalesced + shed");

  const core::LaMetrics fresh =
      recompute_metrics(*rig->live.state, *rig->live.rc, service.engine().critical());
  report->check(same_metrics(published, fresh) && same_metrics(fin.metrics, fresh),
                "serve_sessions: published Tcp differs from the recomputation");
  report->check(never_worse(rig->entry, fresh), "serve_sessions: final state worse than entry");
  const std::string err = validate_netlist(*rig->live.design, *rig->live.state);
  report->check(err.empty(), "serve_sessions: validator: " + err);

  if (!replay) return fresh;
  core::Prepared fresh_base = core::prepare(grid::Design(base));
  const serve::ServeOptions opt = serve_options(dir);
  const Result<std::uint64_t> replayed = serve::replay_journal(
      opt.journal_path, fresh_base.design.get(), fresh_base.state.get(), fresh_base.rc.get(),
      opt.eco);
  report->check(replayed.is_ok() && replayed.value() == hash,
                "serve_sessions: journal replay does not match the final snapshot");
  return fresh;
}

void serve_report_layers(Report* report, const ServeLoad& load) {
  const double client_resolves = static_cast<double>(load.resolve_ms.size());
  const double worker_resolves = hist_count("phase.serve.resolve.ms");
  const double worker_ms = hist_sum("phase.serve.resolve.ms");
  report->metric("serve.submit_p50_us", median(load.submit_us), "us");
  report->metric("serve.snapshot_read_p50_us", median(load.read_us), "us");
  report->metric("serve.sync_p50_ms", percentile(load.sync_ms, 50.0), "ms");
  report->metric("serve.sync_p90_ms", percentile(load.sync_ms, 90.0), "ms");
  report->metric("serve.worker.resolve_ms", worker_ms / worker_resolves, "ms");
  report->metric("serve.resolve.wait_ms",
                 hist_sum("phase.serve.resolve.wait.ms") /
                     std::max(1.0, hist_count("phase.serve.resolve.wait.ms")),
                 "ms");
  report->metric("serve.batch_ms",
                 hist_sum("phase.serve.batch.ms") / std::max(1.0, hist_count("phase.serve.batch.ms")),
                 "ms");
  report->metric("serve.worker.batches", counter("serve.worker.batches") / client_resolves,
                 "count");
  report->metric("serve.journal.records", counter("serve.journal.records") / client_resolves,
                 "count");
  report->metric("serve.checkpoint.writes", counter("serve.checkpoint.writes") / client_resolves,
                 "count");
  report->metric("serve.resolve_fold", client_resolves / worker_resolves, "ratio");
  report->metric("serve.deltas.shed", counter("serve.deltas.shed"), "count");
  report->metric("serve.deltas.rejected", counter("serve.deltas.rejected"), "count");
  // The worker's resolves run core::optimize inside the serve.resolve phase.
  report_core_layers(report, worker_resolves, worker_ms);
  report_eco_cache(report, worker_resolves, "serve_sessions");
  report->metric("eco.resolve.busy_ms", worker_ms / worker_resolves, "ms");
}

/// One pass: a fresh service, the clients' load, and the proof-back. The
/// registry is reset after set-up, so the pass's layer numbers and
/// identities cover the load alone. `root` > -1 brackets the load in a span.
struct ServePass {
  ServeLoad load;
  core::LaMetrics entry, fin;
};

ServePass serve_pass(ServeRig* rig, const grid::Design& base, const ServeScripts& scripts,
                     const std::string& dir, bool replay, Tracer* tracer, Report* report,
                     std::vector<double>* setup_ms, SetupLayers* setup) {
  rig->service.reset();  // stops the previous pass's service before its state goes
  *rig = serve_set_up(base, scripts, dir, tracer, report, setup_ms, setup);
  reset_obs();
  ServePass pass;
  pass.entry = rig->entry;
  const int root = tracer->begin("measure");
  pass.load = serve_load(rig, scripts, tracer);
  tracer->end(root);
  serve_report_layers(report, pass.load);  // before the replay touches the registry
  pass.fin = serve_finish(rig, pass.load, base, dir, replay, report);
  return pass;
}

}  // namespace

void run_serve_sessions(const Args& args, Report* report, Tracer* tracer) {
  const grid::Design base = serve_design();
  const std::string dir = args.out_dir + "/serve_journal";
  const ServeScripts scripts = serve_scripts(base, serve_options(dir).eco.critical_ratio, args.seed);
  std::vector<double> setup_ms;
  SetupLayers setup;

  const bool traced_run = tracer->enabled();
  tracer->set_enabled(false);  // the first pass is the untraced baseline
  reset_obs();  // set-up layer numbers exclude the script's probe prepare
  ServeRig rig;
  const Clock::time_point start = Clock::now();
  const ServePass first =
      serve_pass(&rig, base, scripts, dir, true, tracer, report, &setup_ms, &setup);
  const core::LaMetrics& fin = first.fin;
  report->metric("assign.overflow", static_cast<double>(fin.wire_overflow + fin.via_overflow),
                 "count");

  if (!traced_run) {
    const serve::ServeOptions opt = serve_options(dir);
    // A from-scratch optimize of the served final state is never worse
    // than what the service landed on.
    const core::OptimizeResult landed = core::optimize(
        rig.live.state.get(), *rig.live.rc, rig.service->engine().critical(), opt.eco.flow);
    report->check(landed.status.is_ok() && never_worse(fin, landed.result.metrics),
                  "serve_sessions: control optimize failed or regressed");

    // optimize_s: the served design's converged state (the served final
    // state depends on the clients' interleaving; this one does not).
    Reference reference{core::prepare(grid::Design(base)), {}, {}, opt.eco.flow, {}, {}};
    reference.critical =
        core::select_critical(*reference.prep.state, *reference.prep.rc, opt.eco.critical_ratio);
    report->check(core::optimize(reference.prep.state.get(), *reference.prep.rc,
                                 reference.critical, opt.eco.flow)
                      .status.is_ok(),
                  "serve_sessions: converging optimize failed");
    reference.converged = layers_of(*reference.prep.state);
    reference.time(report, "serve_sessions");

    // More passes, each on a fresh service, while the time allows (the
    // journal replay proof runs on the first pass only: it costs a pass).
    std::vector<ServePass> passes = {first};
    double last_ms = ms_since(start);
    while (another_pass(static_cast<int>(passes.size()), start, last_ms, args.seconds)) {
      const Clock::time_point t0 = Clock::now();
      passes.push_back(serve_pass(&rig, base, scripts, dir, false, tracer, report, &setup_ms, &setup));
      reference.time(report, "serve_sessions");
      last_ms = ms_since(t0);
    }
    // A client's resolve waits for whatever the other client queued ahead
    // of it, so its latency depends on the interleaving and a pass does
    // not repeat it: the samples of all passes are pooled.
    std::vector<double> resolve_ms;
    double submits = 0.0, wall_s = 0.0, avg_ratio = 0.0, max_ratio = 0.0;
    for (const ServePass& p : passes) {
      resolve_ms.insert(resolve_ms.end(), p.load.resolve_ms.begin(), p.load.resolve_ms.end());
      submits += static_cast<double>(p.load.submits);
      wall_s += p.load.wall_s;
      avg_ratio += p.fin.avg_tcp / p.entry.avg_tcp / static_cast<double>(passes.size());
      max_ratio += p.fin.max_tcp / p.entry.max_tcp / static_cast<double>(passes.size());
    }
    report->metric("setup_s", median(setup_ms) / 1e3, "s");
    report->metric("optimize_s", reference.fastest_s(), "s");
    report->metric("resolve_p50_ms", percentile(resolve_ms, 50.0), "ms");
    report->metric("resolve_p90_ms", percentile(resolve_ms, 90.0), "ms");
    report->metric("ops_per_s", submits / wall_s, "1/s");
    report->metric("avg_tcp_ratio", avg_ratio, "ratio");
    report->metric("max_tcp_ratio", max_ratio, "ratio");
    report->metric("via_count", static_cast<double>(fin.via_count), "count");
    report->metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: a second pass with spans on. The result is
  // interleaving-dependent, so the traced pass is checked by its own journal
  // replay rather than against the untraced hash.
  tracer->set_enabled(true);
  const ServePass traced =
      serve_pass(&rig, base, scripts, dir, true, tracer, report, &setup_ms, &setup);
  report->metric("trace.overhead_share",
                 (median(traced.load.resolve_ms) - median(first.load.resolve_ms)) /
                     median(first.load.resolve_ms),
                 "ratio");
  // Client spans run on the client threads, one tree per client.
  report->metric("trace.unattributed_ms",
                 root_self_ms(*tracer, "client", report, "serve_sessions") /
                     static_cast<double>(traced.load.resolve_ms.size()),
                 "ms");
  setup.report(report);
}

}  // namespace perfbench
