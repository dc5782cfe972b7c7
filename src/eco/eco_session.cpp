#include "src/eco/eco_session.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"

namespace cpla::eco {

EcoSession::EcoSession(grid::Design* design, assign::AssignState* state,
                       const timing::RcTable* rc, EcoOptions options)
    : design_(design),
      state_(state),
      rc_(rc),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  CPLA_ASSERT(design_ != nullptr && state_ != nullptr && rc_ != nullptr);
  CPLA_ASSERT_MSG(&state_->design() == design_, "state must be built on this design");
  critical_ = core::select_critical(*state_, *rc_, options_.critical_ratio);
  tree_version_.assign(static_cast<std::size_t>(state_->num_nets()), 0);
}

Result<int> EcoSession::apply(const Delta& delta) {
  Result<int> applied = apply_delta(delta, design_, state_, &critical_);
  if (!applied.is_ok()) return applied;

  ++deltas_applied_;
  obs::metrics().counter("eco.deltas.applied").add();

  if (delta.kind == DeltaKind::kNetRerouted || delta.kind == DeltaKind::kNetAdded ||
      delta.kind == DeltaKind::kNetRemoved) {
    const int net = applied.value();
    if (net >= 0) {
      if (net >= static_cast<int>(tree_version_.size())) {
        tree_version_.resize(static_cast<std::size_t>(net) + 1, 0);
      }
      tree_version_[net] = next_version_++;
    }
    // A tree changed shape (or the net set changed): the attached STA
    // graph's node/edge structure is stale, not just its delays.
    if (sta_graph_ != nullptr) sta_graph_->invalidate_topology();
  }
  return applied;
}

core::OptimizeResult EcoSession::resolve(const ResolveOptions& request) {
  ++resolves_;
  obs::metrics().counter("eco.resolve.calls").add();
  degraded_.store(false, std::memory_order_relaxed);
  cache_.clear_poison();

  core::CplaOptions opts = options_.flow;
  if (request.deadline_ms > 0.0) opts.guard.deadline_ms = request.deadline_ms;
  opts.partition_solver = [this, guard = opts.guard](const core::PartitionProblem& problem,
                                                     const assign::AssignState& state,
                                                     core::GuardStats* stats) {
    return solve_partition(problem, state, guard, stats);
  };
  opts.cancel = request.cancel;

  // Entry snapshot: a degraded run restores it before full_resolve() so the
  // fallback optimizes the same input state a fresh core::optimize() would
  // see — resolve() stays bit-identical to the stock path even under
  // injected faults (no double optimization).
  std::vector<std::vector<int>> entry_layers(static_cast<std::size_t>(state_->num_nets()));
  for (int net = 0; net < state_->num_nets(); ++net) entry_layers[net] = state_->layers(net);

  core::OptimizeResult out = core::optimize(state_, *rc_, critical_, opts);
  if (out.result.cancelled) {
    // The caller owns the decision to keep or roll back a partial run.
    obs::metrics().counter("eco.resolve.cancelled").add();
    retime_sta();
    return out;
  }
  if (degraded_.load(std::memory_order_relaxed) || cache_.poisoned()) {
    // A fault fired inside the incremental machinery. The run above was
    // still valid (degraded partitions fell back to plain guarded solves,
    // and optimize() enforces never-worse), but redo it on the stock path
    // from the entry state so the final answer owes nothing to the cache.
    ++fallbacks_;
    obs::metrics().counter("eco.resolve.fallbacks").add();
    LOG_WARN("eco: resolve degraded, falling back to full_resolve");
    for (int net = 0; net < state_->num_nets(); ++net) {
      if (state_->layers(net) != entry_layers[net]) {
        state_->set_layers(net, std::move(entry_layers[net]));
      }
    }
    return full_resolve();
  }
  retime_sta();
  return out;
}

core::OptimizeResult EcoSession::full_resolve() {
  ++full_resolves_;
  obs::metrics().counter("eco.resolve.full").add();
  core::OptimizeResult out = core::optimize(state_, *rc_, critical_, options_.flow);
  retime_sta();
  return out;
}

void EcoSession::retime_sta() {
  if (sta_graph_ == nullptr || !sta_graph_->built()) return;
  sta_graph_->update(*state_);
  obs::metrics().counter("sta.eco.retimes").add();
}

void EcoSession::restore_critical(core::CriticalSet critical) {
  critical_ = std::move(critical);
  if (critical_.released.size() < static_cast<std::size_t>(state_->num_nets())) {
    critical_.released.resize(static_cast<std::size_t>(state_->num_nets()), 0);
  }
  tree_version_.resize(static_cast<std::size_t>(state_->num_nets()), 0);
  for (std::uint64_t& v : tree_version_) v = next_version_++;
  cache_.clear();
  // The design/state were swapped out from under the session: any attached
  // graph is structurally stale; it rebuilds on its next update().
  if (sta_graph_ != nullptr) sta_graph_->invalidate_topology();
}

EcoStats EcoSession::stats() const {
  EcoStats s;
  s.deltas_applied = deltas_applied_;
  s.resolves = resolves_;
  s.full_resolves = full_resolves_;
  s.fallbacks = fallbacks_;
  s.clean_partitions = clean_partitions_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  return s;
}

namespace {

/// Defensive validation of a cached pick against the freshly built problem
/// (a hit already proved key equality, so this only guards against cache
/// corruption): well-formed indices and capacity-row feasibility.
bool replay_valid(const core::PartitionProblem& problem, const core::GuardedSolve& solve) {
  if (solve.result.pick.size() != problem.vars.size()) return false;
  for (std::size_t i = 0; i < problem.vars.size(); ++i) {
    const int k = solve.result.pick[i];
    if (k < 0 || k >= static_cast<int>(problem.vars[i].layers.size())) return false;
  }
  return rows_feasible(problem, solve.result.pick);
}

}  // namespace

core::GuardedSolve EcoSession::solve_partition(const core::PartitionProblem& problem,
                                               const assign::AssignState& state,
                                               const core::GuardOptions& guard,
                                               core::GuardStats* stats) {
  const core::CplaOptions& f = options_.flow;
  const core::Engine engine = core::primary_engine(problem, guard, f.engine);
  auto solve_fresh = [&]() {
    return core::guarded_solve(problem, state, engine, core::effective_sdp_options(f), f.ilp,
                               guard, stats);
  };

  if (CPLA_FAULT_POINT("eco.resolve.partition")) {
    degraded_.store(true, std::memory_order_relaxed);
    return solve_fresh();
  }
  // Once degraded, stop consulting the cache for the rest of this resolve
  // (the whole run will be redone by full_resolve anyway).
  if (degraded_.load(std::memory_order_relaxed)) return solve_fresh();

  clean_partitions_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter("eco.partitions.clean").add();
  const CacheKey key = build_key(problem, state, engine);
  core::GuardedSolve cached;
  if (cache_.lookup(key, &cached)) {
    if (replay_valid(problem, cached)) {
      ++stats->solves;
      ++stats->tier_used[static_cast<int>(cached.tier)];
      ++stats->engine_used[static_cast<int>(engine)];
      return cached;
    }
    // Corrupt entry: treat as a miss and overwrite below.
    obs::metrics().counter("eco.cache.replay_rejects").add();
  }
  if (cache_.poisoned()) degraded_.store(true, std::memory_order_relaxed);
  const long deadline_hits = stats->deadline_hits;
  const core::GuardedSolve solved = solve_fresh();
  // A solve the wall clock truncated (deadline_ms or the forced
  // solve_guard.deadline fault) is not a function of the key, which carries
  // no deadline: replaying it in a later deadline-free resolve would break
  // bit-identity with full_resolve().
  if (stats->deadline_hits != deadline_hits) {
    obs::metrics().counter("eco.cache.uncacheable").add();
  } else {
    cache_.insert(key, solved);
  }
  return solved;
}

CacheKey EcoSession::build_key(const core::PartitionProblem& problem,
                               const assign::AssignState& state, core::Engine engine) const {
  CacheKey key;
  const auto& g = state.design().grid;

  // Session salt: solver selection and grid shape. (Solver *options* are
  // fixed for the session's lifetime, so they need no words here.) The
  // per-problem primary engine is part of the key next to the session's
  // engine: a pick produced by one engine must never replay for a config
  // that would route elsewhere.
  key.push_int(static_cast<int>(options_.flow.engine));
  key.push_int(static_cast<int>(engine));
  key.push_int(g.num_layers());
  key.push_int(state.nv());

  // The built problem: everything the engines read from it.
  key.push_int(problem.region_x0);
  key.push_int(problem.region_y0);
  key.push_int(problem.region_x1);
  key.push_int(problem.region_y1);
  key.push_int(static_cast<long long>(problem.vars.size()));
  key.push_int(static_cast<long long>(problem.pairs.size()));
  key.push_int(static_cast<long long>(problem.cap_rows.size()));
  for (const core::VarGroup& v : problem.vars) {
    key.push_int(v.net);
    key.push_int(v.seg);
    key.push_int(v.current_layer);
    key.push_double(v.weight);
    key.push_int(static_cast<long long>(v.layers.size()));
    for (int l : v.layers) key.push_int(l);
    for (double c : v.cost) key.push_double(c);
  }
  for (const core::VarPair& p : problem.pairs) {
    key.push_int(p.child);
    key.push_int(p.parent);
    key.push_int(p.junction.x);
    key.push_int(p.junction.y);
    key.push_double(p.scale);
    key.push_int(static_cast<long long>(p.load_ratio.size()));
    for (double r : p.load_ratio) key.push_double(r);
  }
  for (const core::CapRow& row : problem.cap_rows) {
    key.push_int(row.layer);
    key.push_int(row.edge);
    key.push_int(row.cap_remaining);
    key.push_int(static_cast<long long>(row.members.size()));
    for (int m : row.members) key.push_int(m);
  }

  // Live-state reads beyond the problem. (a) The SDP post-mapping walks
  // wire usage/capacity along each var's edges for every allowed layer.
  for (const core::VarGroup& v : problem.vars) {
    state.for_each_edge(v.net, v.seg, [&](int e) {
      for (int l : v.layers) {
        key.push_int(state.wire_usage(l, e));
        key.push_int(state.wire_cap(l, e));
      }
    });
  }
  // (b) The ILP tier reads via load/capacity at pair-junction cells on the
  // intermediate layers.
  for (const core::VarPair& p : problem.pairs) {
    const int cell = g.cell_id(p.junction.x, p.junction.y);
    for (int l = 1; l + 1 < g.num_layers(); ++l) {
      key.push_int(state.via_load(l, cell));
      key.push_int(state.via_cap(l, cell));
    }
  }
  // (c) The net-DP tier reads the partition nets' trees and *full* layer
  // vectors (segments outside the region included).
  std::vector<int> nets;
  nets.reserve(problem.vars.size());
  for (const core::VarGroup& v : problem.vars) nets.push_back(v.net);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  for (int net : nets) {
    key.push_int(net);
    key.push(tree_version_[static_cast<std::size_t>(net)]);
    const std::vector<int>& layers = state.layers(net);
    key.push_int(static_cast<long long>(layers.size()));
    for (int l : layers) key.push_int(l);
  }

  key.finalize();
  return key;
}

}  // namespace cpla::eco
