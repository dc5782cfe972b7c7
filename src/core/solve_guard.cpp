#include "src/core/solve_guard.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "src/assign/net_dp.hpp"
#include "src/core/ilp_engine.hpp"
#include "src/core/lagr_engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace cpla::core {

const char* to_string(GuardTier tier) {
  switch (tier) {
    case GuardTier::kPrimary: return "primary";
    case GuardTier::kRetry: return "sdp-retry";
    case GuardTier::kIlp: return "ilp-fallback";
    case GuardTier::kNetDp: return "net-dp";
    case GuardTier::kKeepCurrent: return "keep-current";
  }
  return "?";
}

void GuardStats::merge(const GuardStats& other) {
  solves += other.solves;
  for (int t = 0; t < kNumGuardTiers; ++t) tier_used[t] += other.tier_used[t];
  for (int e = 0; e < kNumPrimaryEngines; ++e) engine_used[e] += other.engine_used[e];
  deadline_hits += other.deadline_hits;
  numerical_failures += other.numerical_failures;
  iteration_limits += other.iteration_limits;
  validation_rejects += other.validation_rejects;
  commit_rollbacks += other.commit_rollbacks;
}

bool GuardStats::degraded() const {
  for (int t = 1; t < kNumGuardTiers; ++t) {
    if (tier_used[t] > 0) return true;
  }
  return commit_rollbacks > 0;
}

void GuardStats::log_summary(const char* label) const {
  log_msg(degraded() ? LogLevel::kWarn : LogLevel::kInfo,
          "%s guard: solves=%ld primary=%ld retry=%ld ilp=%ld net-dp=%ld kept=%ld "
          "rollbacks=%ld (deadline=%ld numerical=%ld iterlimit=%ld rejected=%ld) "
          "engines sdp=%ld ilp=%ld lagr=%ld",
          label, solves, tier_used[0], tier_used[1], tier_used[2], tier_used[3], tier_used[4],
          commit_rollbacks, deadline_hits, numerical_failures, iteration_limits,
          validation_rejects, engine_used[0], engine_used[1], engine_used[2]);
}

namespace {

void classify_failure(StatusCode code, GuardStats* stats) {
  switch (code) {
    case StatusCode::kDeadlineExceeded: ++stats->deadline_hits; break;
    case StatusCode::kNumericalFailure: ++stats->numerical_failures; break;
    case StatusCode::kIterationLimit: ++stats->iteration_limits; break;
    default: break;
  }
}

/// A tier's pick is committable iff it is well-formed, finite, no worse
/// than the incumbent on the model objective, and inside the capacity rows
/// (the incumbent itself is exempt from the row check: pre-existing
/// overflow must not block the no-op).
bool pick_acceptable(const PartitionProblem& p, const std::vector<int>& pick,
                     const std::vector<int>& incumbent, double incumbent_obj) {
  if (pick.size() != p.vars.size()) return false;
  for (std::size_t i = 0; i < p.vars.size(); ++i) {
    if (pick[i] < 0 || pick[i] >= static_cast<int>(p.vars[i].layers.size())) return false;
  }
  const double obj = p.evaluate(pick);
  if (!std::isfinite(obj)) return false;
  if (obj > incumbent_obj + 1e-9 * (1.0 + std::fabs(incumbent_obj))) return false;
  if (pick != incumbent && !rows_feasible(p, pick)) return false;
  return true;
}

}  // namespace

EngineResult solve_partition_net_dp(const PartitionProblem& p,
                                    const assign::AssignState& state) {
  EngineResult result;
  result.pick.assign(p.vars.size(), 0);
  if (p.vars.empty()) return result;

  // Vars and pairs grouped per net (pairs always couple segments of one
  // net — they are tree edges). Ordered map: per-net DP results are
  // disjoint, but solving in net-id order keeps the fallback's fault/log
  // sequence deterministic.
  std::map<int, std::vector<int>> net_vars;
  for (std::size_t i = 0; i < p.vars.size(); ++i) net_vars[p.vars[i].net].push_back(static_cast<int>(i));
  std::unordered_map<long long, int> pair_of;  // (parent var, child var) -> pair index
  for (std::size_t q = 0; q < p.pairs.size(); ++q) {
    pair_of[(static_cast<long long>(p.pairs[q].parent) << 32) | p.pairs[q].child] =
        static_cast<int>(q);
  }

  assign::NetDp dp;
  for (const auto& [net, vars] : net_vars) {
    ScopedFailureContext context(-1, net);
    const route::SegTree& tree = state.tree(net);
    const std::vector<int>& current = state.layers(net);

    // Allowed layers per segment: the var's options for released segments,
    // the (frozen) current layer for everything else.
    std::vector<std::vector<int>> allowed(tree.segs.size());
    std::vector<int> var_of(tree.segs.size(), -1);
    for (std::size_t s = 0; s < tree.segs.size(); ++s) allowed[s] = {current[s]};
    for (int vi : vars) {
      allowed[p.vars[vi].seg] = p.vars[vi].layers;
      var_of[p.vars[vi].seg] = vi;
    }

    // Linear cost of a released segment's layer choice; fixed segments are
    // constants and contribute nothing to the argmin.
    auto seg_cost = [&](int s, int l) -> double {
      const int vi = var_of[s];
      if (vi < 0) return 0.0;
      const VarGroup& var = p.vars[vi];
      for (std::size_t k = 0; k < var.layers.size(); ++k) {
        if (var.layers[k] == l) return var.cost[k];
      }
      return 0.0;
    };
    // Vias to fixed neighbors are already folded into the linear costs by
    // the model builder; only released-released couplings vary here.
    auto via_cost = [&](int c, int lp, int lc) -> double {
      const int pv = var_of[tree.segs[c].parent];
      const int cv = var_of[c];
      if (pv < 0 || cv < 0) return 0.0;
      auto it = pair_of.find((static_cast<long long>(pv) << 32) | cv);
      if (it == pair_of.end()) return 0.0;
      return p.pair_cost(p.pairs[it->second], lp, lc);
    };

    const std::vector<int>& dp_layers = dp.solve(
        tree, [&](int s) -> const std::vector<int>& { return allowed[s]; }, seg_cost,
        [](int, int) { return 0.0; }, via_cost);

    for (int vi : vars) {
      const VarGroup& var = p.vars[vi];
      for (std::size_t k = 0; k < var.layers.size(); ++k) {
        if (var.layers[k] == dp_layers[var.seg]) result.pick[vi] = static_cast<int>(k);
      }
    }
  }

  if (p.options.polish && rows_feasible(p, result.pick)) polish_pick(p, &result.pick);
  result.objective = p.evaluate(result.pick);
  return result;
}

Engine primary_engine(const PartitionProblem& problem, const GuardOptions& guard,
                      Engine engine) {
  if (engine != Engine::kHybrid) return engine;
  constexpr int kLagrMinVars = 48;      // at/above: sub-gradient beats the lifted SDP
  constexpr int kDeadlineMinVars = 12;  // at/above under a deadline: don't risk keep-current
  const int vars = static_cast<int>(problem.vars.size());
  if (vars >= kLagrMinVars) return Engine::kLagr;
  if (guard.deadline_ms > 0.0 && vars >= kDeadlineMinVars) return Engine::kLagr;
  return Engine::kSdp;
}

/// The escalation chain on a resolved (non-hybrid) engine.
static GuardedSolve guarded_solve_impl(const PartitionProblem& p,
                                       const assign::AssignState& state, Engine engine,
                                       const sdp::SdpOptions& sdp_options,
                                       const ilp::MipOptions& ilp_options,
                                       const GuardOptions& guard, GuardStats* stats) {
  GuardedSolve out;
  ++stats->solves;
  ++stats->engine_used[static_cast<int>(engine)];
  if (p.vars.empty()) {
    ++stats->tier_used[static_cast<int>(GuardTier::kPrimary)];
    return out;
  }

  const std::vector<int> incumbent = incumbent_pick(p);
  const double incumbent_obj = p.evaluate(incumbent);

  auto keep_current = [&](StatusCode why) {
    out.tier = GuardTier::kKeepCurrent;
    out.result = EngineResult{};
    out.result.pick = incumbent;
    out.result.objective = incumbent_obj;
    out.result.solver_ok = false;
    out.result.code = why;
    if (why != StatusCode::kOk) {
      out.status = Status(why, "partition solve degraded to keep-current");
    }
    ++stats->tier_used[static_cast<int>(GuardTier::kKeepCurrent)];
  };

  auto primary_result = [&](const sdp::SdpOptions& opts) {
    switch (engine) {
      case Engine::kLagr: return solve_partition_lagr(p, state);
      case Engine::kIlp: return solve_partition_ilp(p, state, ilp_options);
      case Engine::kSdp:
      case Engine::kHybrid: break;  // kHybrid never reaches here: resolved by the caller
    }
    return solve_partition_sdp(p, state, opts);
  };

  WallTimer timer;
  const bool forced_deadline = CPLA_FAULT_POINT("solve_guard.deadline");
  auto deadline_expired = [&]() {
    if (forced_deadline) return true;
    return guard.deadline_ms > 0.0 && timer.milliseconds() >= guard.deadline_ms;
  };
  auto sdp_budget = [&](const sdp::SdpOptions& base) {
    sdp::SdpOptions budgeted = base;
    if (guard.deadline_ms > 0.0) {
      const double remaining = guard.deadline_ms - timer.milliseconds();
      budgeted.time_limit_ms = std::max(0.01, remaining);
    }
    return budgeted;
  };

  StatusCode last_failure = StatusCode::kOk;
  auto attempt = [&](GuardTier tier, EngineResult attempt_result) {
    if (attempt_result.code != StatusCode::kOk) {
      classify_failure(attempt_result.code, stats);
      last_failure = attempt_result.code;
    }
    // Iteration-limited solves still carry a usable pick; only hard
    // failures (numerical, deadline, infeasible) disqualify outright.
    const bool hard_failure = attempt_result.code == StatusCode::kNumericalFailure ||
                              attempt_result.code == StatusCode::kDeadlineExceeded ||
                              attempt_result.code == StatusCode::kInfeasible;
    if (!hard_failure &&
        pick_acceptable(p, attempt_result.pick, incumbent, incumbent_obj)) {
      out.tier = tier;
      out.result = std::move(attempt_result);
      ++stats->tier_used[static_cast<int>(tier)];
      return true;
    }
    if (!hard_failure) ++stats->validation_rejects;
    return false;
  };

  // Tier 0: the configured engine.
  if (deadline_expired()) {
    ++stats->deadline_hits;
    keep_current(StatusCode::kDeadlineExceeded);
    return out;
  }
  if (attempt(GuardTier::kPrimary, primary_result(sdp_budget(sdp_options)))) {
    return out;
  }

  // Tier 1: SDP retry with relaxed tolerance and a tighter iteration cap —
  // rescues ill-conditioned instances where chasing the last digits of the
  // gap is what breaks the Schur factorization. Under the Lagrangian
  // primary the retry is a *full* SDP solve instead: a cross-backend
  // rescue, since the two engines' failure modes are disjoint.
  if (engine == Engine::kSdp && !deadline_expired()) {
    constexpr double kRetryTolScale = 100.0;  // retry tolerance = tol * scale
    constexpr int kRetryMaxIterations = 30;
    sdp::SdpOptions relaxed = sdp_budget(sdp_options);
    relaxed.tol = sdp_options.tol * kRetryTolScale;
    relaxed.max_iterations = std::min(sdp_options.max_iterations, kRetryMaxIterations);
    if (attempt(GuardTier::kRetry, solve_partition_sdp(p, state, relaxed))) return out;
  } else if (engine == Engine::kLagr && !deadline_expired()) {
    if (attempt(GuardTier::kRetry, solve_partition_sdp(p, state, sdp_budget(sdp_options)))) {
      return out;
    }
  }

  // Tier 2: exact ILP for small partitions (GAP-LA-style engine switch:
  // below this size the exact search is cheap and has no PSD numerics).
  constexpr int kIlpFallbackMaxVars = 10;
  constexpr double kIlpFallbackTimeS = 2.0;  // ILP tier time budget
  if (engine != Engine::kIlp && !deadline_expired() &&
      static_cast<int>(p.vars.size()) <= kIlpFallbackMaxVars) {
    ilp::MipOptions mip = ilp_options;
    mip.time_limit_s = kIlpFallbackTimeS;
    if (guard.deadline_ms > 0.0) {
      mip.time_limit_s =
          std::min(mip.time_limit_s, std::max(0.001, (guard.deadline_ms - timer.milliseconds()) * 1e-3));
    }
    if (attempt(GuardTier::kIlp, solve_partition_ilp(p, state, mip))) return out;
  }

  // Tier 3: per-net tree DP — deterministic, milliseconds, no numerics.
  if (!deadline_expired()) {
    if (attempt(GuardTier::kNetDp, solve_partition_net_dp(p, state))) return out;
  } else {
    ++stats->deadline_hits;
    last_failure = StatusCode::kDeadlineExceeded;
  }

  // Tier 4: keep the current assignment — the incremental framework's
  // always-valid answer.
  keep_current(last_failure);
  return out;
}

/// Mirrors per-solve outcomes into the global registry — the local
/// GuardStats aggregate belongs to one flow invocation, while the registry
/// feeds the bench JSON / CI view across the whole process.
GuardedSolve guarded_solve(const PartitionProblem& p, const assign::AssignState& state,
                           Engine engine, const sdp::SdpOptions& sdp_options,
                           const ilp::MipOptions& ilp_options, const GuardOptions& guard,
                           GuardStats* stats) {
  static obs::Counter& solves = obs::metrics().counter("core.guard.solves");
  static obs::Counter* tiers[kNumGuardTiers] = {
      &obs::metrics().counter("core.guard.tier.primary"),
      &obs::metrics().counter("core.guard.tier.sdp-retry"),
      &obs::metrics().counter("core.guard.tier.ilp-fallback"),
      &obs::metrics().counter("core.guard.tier.net-dp"),
      &obs::metrics().counter("core.guard.tier.keep-current"),
  };
  static obs::Counter& deadline_hits = obs::metrics().counter("core.guard.deadline_hits");
  static obs::Counter& numerical = obs::metrics().counter("core.guard.numerical_failures");
  static obs::Counter& iter_limits = obs::metrics().counter("core.guard.iteration_limits");
  static obs::Counter& rejects = obs::metrics().counter("core.guard.validation_rejects");
  static obs::Counter& sdp_iters = obs::metrics().counter("core.guard.sdp_iterations");
  static obs::Histogram& wall = obs::metrics().histogram("core.guard.solve.ms");

  const GuardStats before = *stats;
  WallTimer timer;
  GuardedSolve out = guarded_solve_impl(p, state, primary_engine(p, guard, engine), sdp_options,
                                        ilp_options, guard, stats);
  wall.record(timer.milliseconds());
  solves.add();
  tiers[static_cast<int>(out.tier)]->add();
  deadline_hits.add(stats->deadline_hits - before.deadline_hits);
  numerical.add(stats->numerical_failures - before.numerical_failures);
  iter_limits.add(stats->iteration_limits - before.iteration_limits);
  rejects.add(stats->validation_rejects - before.validation_rejects);
  sdp_iters.add(out.result.iterations);
  return out;
}

}  // namespace cpla::core
