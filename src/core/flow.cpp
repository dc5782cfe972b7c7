#include "src/core/flow.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "src/core/ilp_engine.hpp"
#include "src/core/sdp_engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/timing/elmore.hpp"
#include "src/util/check.hpp"
#include "src/util/logging.hpp"

namespace cpla::core {

namespace {

/// (Avg(Tcp), Max(Tcp)) over the critical set: the worst-sink Elmore delay
/// of each net, summed and maxed in set order.
std::pair<double, double> critical_timing(const assign::AssignState& state,
                                          const timing::RcTable& rc,
                                          const CriticalSet& critical) {
  double sum = 0.0, worst = 0.0;
  for (int net : critical.nets) {
    const double d = timing::critical_delay(state.tree(net), state.layers(net), rc);
    sum += d;
    worst = std::max(worst, d);
  }
  return {critical.nets.empty() ? 0.0 : sum / static_cast<double>(critical.nets.size()),
          worst};
}

}  // namespace

LaMetrics compute_metrics(const assign::AssignState& state, const timing::RcTable& rc,
                          const CriticalSet& critical) {
  LaMetrics m;
  std::tie(m.avg_tcp, m.max_tcp) = critical_timing(state, rc, critical);
  m.via_overflow = state.via_overflow();
  m.via_count = state.via_count();
  m.wire_overflow = state.wire_overflow();
  return m;
}

sdp::SdpOptions effective_sdp_options(const CplaOptions& options) {
  sdp::SdpOptions sdp = options.sdp;
  sdp.parallel = sdp.parallel && options.parallel;
  return sdp;
}

CplaResult run_cpla(assign::AssignState* state, const timing::RcTable& rc,
                    const CriticalSet& critical, const CplaOptions& options) {
  CplaResult result;
  const auto& g = state->design().grid;

  // Best-state tracking: rounds optimize the weighted-sum model, which can
  // trade the worst path against the average; the flow returns the best
  // state seen under an equal-weight (Avg, Max) score, so neither metric
  // regresses past the initial assignment.
  auto score_of = [&](double avg, double max, double avg0, double max0) {
    return 0.5 * avg / std::max(1e-12, avg0) + 0.5 * max / std::max(1e-12, max0);
  };
  auto net_delay = [&](int net) {
    return timing::critical_delay(state->tree(net), state->layers(net), rc);
  };

  // The per-partition solve, routed through the ECO hook when one is set.
  const sdp::SdpOptions sdp_opts = effective_sdp_options(options);

  const PartitionSolveFn solve_one =
      options.partition_solver
          ? options.partition_solver
          : PartitionSolveFn([&options, sdp_opts](const PartitionProblem& p,
                                                  const assign::AssignState& s,
                                                  GuardStats* stats) {
              return guarded_solve(p, s, options.engine, sdp_opts, options.ilp, options.guard,
                                   stats);
            });

  const auto [avg0, max0] = critical_timing(*state, rc, critical);
  double best_score = 1.0;
  std::map<int, std::vector<int>> best_state;
  for (int net : critical.nets) best_state.emplace(net, state->layers(net));

  // Live-STA rediscovery: with a timing graph attached, rounds work on a
  // freshly re-selected set (`active`); without one, on the entry set.
  CriticalSet rediscovered;
  const CriticalSet* active = &critical;

  // Timing snapshot of every released net: downstream caps, critical
  // paths and focus factors are frozen for the round's displacement and
  // solves.
  auto freeze = [&](const ModelOptions& model_options) {
    obs::ScopedPhase phase("core.flow.timing_snapshot");
    return freeze_timing(*state, rc, active->nets, model_options);
  };

  // One full partition-solve-commit sweep under the given model options
  // and the round's frozen timing; returns false if there was nothing to
  // do.
  auto run_round = [&](const ModelOptions& model_options, const RoundTiming& timings) {
    obs::ScopedPhase round_phase("core.flow.round");
    obs::metrics().counter("core.flow.rounds").add();

    // Worst-sink delay of every released net at its current layers, for
    // the commit guard: the frozen timing to start (nothing but commits
    // moves a released net within a round), then each kept commit's
    // "after" value.
    std::vector<double> delay_now(static_cast<std::size_t>(state->num_nets()), 0.0);
    for (int net : active->nets) delay_now[net] = timings.at(net).timing.max_sink_delay;

    // All released segments with midpoints.
    std::vector<SegRef> refs;
    for (int net : active->nets) {
      const route::SegTree& tree = state->tree(net);
      for (const route::Segment& seg : tree.segs) {
        SegRef ref;
        ref.net = net;
        ref.seg = seg.id;
        ref.mid = grid::XY{(seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2};
        refs.push_back(ref);
      }
    }
    if (refs.empty()) return false;

    obs::ScopedPhase partition_phase("core.flow.partition");
    const PartitionResult parts = partition(g.xsize(), g.ysize(), refs, options.partition);
    partition_phase.stop();
    result.max_partition_depth = std::max(result.max_partition_depth, parts.max_depth);
    const int num_parts = static_cast<int>(parts.leaves.size());
    obs::metrics().counter("core.flow.partitions").add(num_parts);

    // Gauss-Seidel sweep: each partition is built against the *latest*
    // state and committed immediately, so neighboring partitions see the
    // newly updated layers (the paper's [12] iteration). A commit batch
    // above 1 solves that many partitions Jacobi-style (in parallel under
    // OpenMP) and commits between batches.
    const int batch = std::max(1, options.commit_batch);
    for (int base = 0; base < num_parts; base += batch) {
      const int count = std::min(batch, num_parts - base);
      std::vector<PartitionProblem> problems(static_cast<std::size_t>(count));
      std::vector<GuardedSolve> solutions(static_cast<std::size_t>(count));
      std::vector<GuardStats> local_stats(static_cast<std::size_t>(count));
      obs::ScopedPhase solve_phase("core.flow.solve");
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (options.parallel && count > 1)
#endif
      for (int i = 0; i < count; ++i) {
        ScopedFailureContext context(base + i, -1);
        problems[static_cast<std::size_t>(i)] = build_partition_problem(
            *state, rc, timings, parts.leaves[static_cast<std::size_t>(base + i)],
            model_options);
        solutions[static_cast<std::size_t>(i)] =
            solve_one(problems[static_cast<std::size_t>(i)], *state,
                      &local_stats[static_cast<std::size_t>(i)]);
      }
      solve_phase.stop();
      for (const GuardStats& s : local_stats) result.guard_stats.merge(s);

      obs::ScopedPhase commit_phase("core.flow.commit");
      std::vector<double> after_delay;  // per touched net, in `undo` order

      // Commit each partition as a transaction: apply its picks, re-check
      // capacity and the affected nets' timing against the pre-commit
      // state, and roll the partition back on regression. (Partitions own
      // disjoint segments, so per-partition commits compose exactly like
      // the previous merged batch commit when nothing rolls back.)
      for (int i = 0; i < count; ++i) {
        const PartitionProblem& p = problems[i];
        if (p.vars.empty()) continue;
        // Ordered maps throughout the commit path: the guard's before/after
        // sums accumulate in iteration order, so hash-bucket order would
        // leak into the rollback decision bits.
        std::map<int, std::vector<int>> updates;
        bool changed = false;
        for (std::size_t vi = 0; vi < p.vars.size(); ++vi) {
          const VarGroup& var = p.vars[vi];
          auto it = updates.find(var.net);
          if (it == updates.end()) it = updates.emplace(var.net, state->layers(var.net)).first;
          const int new_layer = var.layers[solutions[i].result.pick[vi]];
          if (it->second[var.seg] != new_layer) changed = true;
          it->second[var.seg] = new_layer;
        }
        if (!changed) continue;

        std::map<int, std::vector<int>> undo;
        double before_sum = 0.0, before_max = 0.0;
        for (const auto& [net, layers] : updates) {
          (void)layers;
          undo.emplace(net, state->layers(net));
          const double d = delay_now[net];
          before_sum += d;
          before_max = std::max(before_max, d);
        }
        const long before_overflow = state->wire_overflow() + state->via_overflow();

        for (auto& [net, layers] : updates) state->set_layers(net, std::move(layers));

        double after_sum = 0.0, after_max = 0.0;
        after_delay.clear();
        for (const auto& [net, layers] : undo) {
          (void)layers;
          const double d = net_delay(net);
          after_delay.push_back(d);
          after_sum += d;
          after_max = std::max(after_max, d);
        }
        const long after_overflow = state->wire_overflow() + state->via_overflow();

        // Valid when capacity did not regress and timing of the touched
        // nets either improved in the worst case or held in the sum (the
        // max-focus weighting legitimately trades sum for max).
        const bool capacity_ok = after_overflow <= before_overflow;
        const bool timing_ok = after_sum <= before_sum * (1.0 + 1e-9) ||
                               after_max < before_max * (1.0 - 1e-12);
        if (!capacity_ok || !timing_ok) {
          for (auto& [net, layers] : undo) state->set_layers(net, std::move(layers));
          ++result.guard_stats.commit_rollbacks;
          obs::metrics().counter("core.guard.commit_rollbacks").add();
        } else {
          std::size_t k = 0;
          for (const auto& [net, layers] : undo) {
            (void)layers;
            delay_now[net] = after_delay[k++];
          }
        }
      }
    }
    result.partitions_solved += num_parts;
    return true;
  };

  std::optional<VictimIndex> victims;
  double prev_avg = 1e300;
  for (int round = 0; round < options.max_rounds; ++round) {
    result.rounds = round + 1;

    // Re-time incrementally and re-select the working set from live slack
    // (worst-over-corners merge) before the round rips anything up.
    if (options.sta_graph != nullptr) {
      obs::ScopedPhase sta_phase("core.flow.sta");
      options.sta_graph->update(*state);
      rediscovered = select_critical(*state, *options.sta_graph, options.critical_ratio);
      active = &rediscovered;
      obs::metrics().counter("core.flow.sta_reselects").add();
    }

    const RoundTiming timings = freeze(options.model);
    if (options.displace_victims) {
      obs::ScopedPhase phase("core.flow.displace");
      // Trees do not change inside a flow: the index is built once.
      if (!victims) victims.emplace(*state);
      make_headroom(state, *active, timings, *victims);
    }

    // Snapshot the released nets so a regressing round can be rolled back
    // (the chaotic Gauss-Seidel sweep is not monotone).
    std::map<int, std::vector<int>> snapshot;
    for (int net : active->nets) snapshot.emplace(net, state->layers(net));

    if (!run_round(options.model, timings)) break;

    // Convergence check on Avg(Tcp); roll back a regressing round. The
    // best (Avg, Max)-scored state is tracked independently.
    const auto [avg, worst] = critical_timing(*state, rc, critical);
    const double score = score_of(avg, worst, avg0, max0);
    if (score < best_score) {
      best_score = score;
      for (int net : critical.nets) best_state[net] = state->layers(net);
    }
    LOG_DEBUG("cpla: round %d avg(Tcp)=%.1f max(Tcp)=%.1f", round + 1, avg, worst);
    if (avg > prev_avg) {
      for (auto& [net, layers] : snapshot) state->set_layers(net, std::move(layers));
      break;
    }
    constexpr double kMinImprovement = 0.001;  // stop when Avg(Tcp) improves < 0.1%
    if (avg > prev_avg * (1.0 - kMinImprovement)) {
      prev_avg = avg;
      break;
    }
    prev_avg = avg;
  }

  // Max-shaving refinement: restart from the best state with the weights
  // collapsed onto the globally-worst nets, keeping only score improvements.
  for (auto& [net, layers] : best_state) state->set_layers(net, layers);
  if (options.max_refine_rounds > 0 && options.model.max_focus_gamma > 0.0) {
    constexpr double kRefineGamma = 8.0;
    ModelOptions refine = options.model;
    refine.max_focus_gamma = kRefineGamma;
    for (int round = 0; round < options.max_refine_rounds; ++round) {
      if (!run_round(refine, freeze(refine))) break;
      const auto [avg, worst] = critical_timing(*state, rc, critical);
      const double score = score_of(avg, worst, avg0, max0);
      LOG_DEBUG("cpla: refine %d avg(Tcp)=%.1f max(Tcp)=%.1f", round + 1, avg, worst);
      if (score < best_score) {
        best_score = score;
        for (int net : critical.nets) best_state[net] = state->layers(net);
      } else {
        break;
      }
    }
  }

  // Land on the best state seen.
  for (auto& [net, layers] : best_state) state->set_layers(net, std::move(layers));

  // Leave the attached graph in sync with the landed state.
  if (options.sta_graph != nullptr) options.sta_graph->update(*state);

  result.metrics = compute_metrics(*state, rc, critical);
  // Per-partition fallback statistics (counts per escalation tier and engine).
  if (result.guard_stats.solves > 0) result.guard_stats.log_summary("cpla");
  return result;
}

CplaResult run_cpla(assign::AssignState* state, const timing::RcTable& rc,
                    const CplaOptions& options) {
  const CriticalSet critical = select_critical(*state, rc, options.critical_ratio);
  return run_cpla(state, rc, critical, options);
}

OptimizeResult optimize(assign::AssignState* state, const timing::RcTable& rc,
                        const CriticalSet& critical, const CplaOptions& options) {
  OptimizeResult out;

  // Snapshot *every* assigned net (victim displacement touches non-released
  // nets too) so any failure — including an exception escaping the flow —
  // restores the initial assignment, which is always a valid answer.
  std::vector<std::vector<int>> snapshot(static_cast<std::size_t>(state->num_nets()));
  for (int net = 0; net < state->num_nets(); ++net) snapshot[net] = state->layers(net);

  const auto [avg0, max0] = critical_timing(*state, rc, critical);
  const long overflow0 = state->wire_overflow() + state->via_overflow();

  auto restore = [&]() {
    for (int net = 0; net < state->num_nets(); ++net) {
      if (state->layers(net) != snapshot[net]) state->set_layers(net, snapshot[net]);
    }
  };

  bool restored = false;
  try {
    out.result = run_cpla(state, rc, critical, options);
  } catch (const std::exception& e) {
    LOG_ERROR("optimize: flow threw (%s); restoring the initial assignment", e.what());
    out.status = Status(StatusCode::kInternal, e.what());
    restore();
    restored = true;
  } catch (...) {
    LOG_ERROR("optimize: flow threw a non-std exception; restoring the initial assignment");
    out.status = Status(StatusCode::kInternal, "non-std exception escaped the flow");
    restore();
    restored = true;
  }

  if (!restored) {
    // Defense in depth on the never-worse contract: run_cpla already lands
    // on its best tracked state, but the contract is re-verified here
    // against the entry state and enforced by rollback if violated.
    const auto [avg1, max1] = critical_timing(*state, rc, critical);
    const long overflow1 = state->wire_overflow() + state->via_overflow();
    const double tol = 1.0 + 1e-9;
    if (avg1 > avg0 * tol || max1 > max0 * tol || overflow1 > overflow0) {
      LOG_WARN(
          "optimize: result regressed (avg %.3f->%.3f max %.3f->%.3f ov %ld->%ld); "
          "restoring the initial assignment",
          avg0, avg1, max0, max1, overflow0, overflow1);
      restore();
      restored = true;
    }
  }
  if (restored) out.result.metrics = compute_metrics(*state, rc, critical);
  return out;
}

OptimizeResult optimize(assign::AssignState* state, const timing::RcTable& rc,
                        const CplaOptions& options) {
  const CriticalSet critical = select_critical(*state, rc, options.critical_ratio);
  return optimize(state, rc, critical, options);
}

}  // namespace cpla::core
