#include "src/sdp/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/la/eigen.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace cpla::sdp {
namespace {

BlockStructure dense_block(int n) { return {BlockSpec{BlockSpec::Kind::kDense, n}}; }

TEST(SdpProblem, ApplyAndAdjoint) {
  SdpProblem p(dense_block(2));
  const int c0 = p.add_constraint(3.0);
  p.add_entry(c0, 0, 0, 0, 1.0);
  p.add_entry(c0, 0, 0, 1, 2.0);  // off-diagonal: counts twice in the trace

  BlockMatrix x(p.structure());
  x.dense(0)(0, 0) = 5.0;
  x.dense(0)(0, 1) = x.dense(0)(1, 0) = 1.5;
  EXPECT_DOUBLE_EQ(p.apply(0, x), 5.0 + 2.0 * 2.0 * 1.5);

  BlockMatrix adj(p.structure());
  p.accumulate_adjoint({2.0}, &adj);
  EXPECT_DOUBLE_EQ(adj.dense(0)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(adj.dense(0)(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(adj.dense(0)(1, 0), 4.0);

  EXPECT_DOUBLE_EQ(p.rhs_vector()[0], 3.0);
}

// min tr(CX) s.t. tr(X) = 1, X >= 0 computes the minimum eigenvalue of C.
TEST(SdpSolver, MinimumEigenvalueDiagonalC) {
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.dense(0)(1, 1), 1.0, 1e-4);
  EXPECT_NEAR(r.x.dense(0)(0, 0), 0.0, 1e-4);
}

TEST(SdpSolver, MinimumEigenvalueDenseC) {
  // C = [[2,1],[1,2]] has eigenvalues {1,3}; optimum X = vv^T, v=(1,-1)/sqrt2.
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 2.0);
  p.add_objective_entry(0, 0, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.dual_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.dense(0)(0, 1), -0.5, 1e-4);
}

// Pure LP posed through the diag block: min x0 + 2 x1, x0 + x1 = 1, x >= 0.
TEST(SdpSolver, LpDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  p.add_objective_entry(0, 0, 0, 1.0);
  p.add_objective_entry(0, 1, 1, 2.0);
  const int c = p.add_constraint(1.0);
  p.add_entry(c, 0, 0, 0, 1.0);
  p.add_entry(c, 0, 1, 1, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 1.0, 1e-5);
  EXPECT_NEAR(r.x.diag(0)[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x.diag(0)[1], 0.0, 1e-4);
}

// Mixed dense + LP-slack: min tr(CX) s.t. tr(X) + s = 2, s >= 0, with C PSD:
// pushing tr(X) to 0 is optimal, s takes the slack.
TEST(SdpSolver, MixedBlocksWithSlack) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, 2}, BlockSpec{BlockSpec::Kind::kDiag, 1}});
  p.add_objective_entry(0, 0, 0, 1.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int c = p.add_constraint(2.0);
  p.add_entry(c, 0, 0, 0, 1.0);
  p.add_entry(c, 0, 1, 1, 1.0);
  p.add_entry(c, 1, 0, 0, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 0.0, 1e-4);
  EXPECT_NEAR(r.x.diag(1)[0], 2.0, 1e-3);
}

// The lifted binary-QP relaxation the CPLA engine uses, on a tiny instance:
// one segment, two layers, costs 5 and 3. Y = [[1, x'],[x, X]], diag(X)=x,
// x0+x1 = 1. The relaxation is exact here: pick layer 1.
TEST(SdpSolver, LiftedAssignmentExact) {
  SdpProblem p(dense_block(3));
  p.add_objective_entry(0, 1, 1, 5.0);
  p.add_objective_entry(0, 2, 2, 3.0);
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int i = 1; i <= 2; ++i) {
    // X_ii - Y_0i = 0  (x^2 = x linkage)
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, i, i, 1.0);
    p.add_entry(link, 0, 0, i, -0.5);  // off-diag counts twice
  }
  const int pick = p.add_constraint(1.0);
  p.add_entry(pick, 0, 1, 1, 1.0);
  p.add_entry(pick, 0, 2, 2, 1.0);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, 3.0, 1e-4);
  EXPECT_NEAR(r.x.dense(0)(2, 2), 1.0, 1e-3);
  EXPECT_NEAR(r.x.dense(0)(1, 1), 0.0, 1e-3);
}

TEST(SdpSolver, DualityGapCloses) {
  // Random PSD objective over the spectraplex; verify optimality conditions.
  cpla::Rng rng(77);
  const int n = 5;
  SdpProblem p(dense_block(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) p.add_objective_entry(0, i, j, rng.uniform(-1.0, 1.0));
  }
  const int tr = p.add_constraint(1.0);
  for (int i = 0; i < n; ++i) p.add_entry(tr, 0, i, i, 1.0);

  const SdpResult r = solve(p);
  ASSERT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_LT(r.rel_gap, 1e-6);
  EXPECT_LT(r.primal_infeas, 1e-6);
  EXPECT_LT(r.dual_infeas, 1e-6);
  // Primal iterate stays PSD (tiny numerical slack allowed).
  EXPECT_TRUE(is_positive_definite(r.x, 1e-9));
  EXPECT_TRUE(is_positive_definite(r.z, 1e-9));
}

// Property sweep: min-eigenvalue SDPs of growing size against the Jacobi
// eigensolver.
class SdpEigSweep : public ::testing::TestWithParam<int> {};

TEST_P(SdpEigSweep, MatchesEigensolver) {
  const int n = GetParam();
  cpla::Rng rng(900 + static_cast<std::uint64_t>(n));
  la::Matrix c(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  SdpProblem p(dense_block(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.uniform(-2.0, 2.0);
      c(i, j) = c(j, i) = v;
      p.add_objective_entry(0, i, j, v);
    }
  }
  const int tr = p.add_constraint(1.0);
  for (int i = 0; i < n; ++i) p.add_entry(tr, 0, i, i, 1.0);

  const SdpResult r = solve(p);
  ASSERT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_NEAR(r.primal_obj, la::min_eigenvalue(c), 1e-4 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SdpEigSweep, ::testing::Values(2, 3, 4, 6, 8, 12, 16));

// A small well-posed instance reused by the failure-mode tests below.
SdpProblem min_eig_instance() {
  SdpProblem p(dense_block(2));
  p.add_objective_entry(0, 0, 0, 2.0);
  p.add_objective_entry(0, 1, 1, 1.0);
  const int tr = p.add_constraint(1.0);
  p.add_entry(tr, 0, 0, 0, 1.0);
  p.add_entry(tr, 0, 1, 1, 1.0);
  return p;
}

TEST(SdpStatusNames, AllValues) {
  EXPECT_STREQ(to_string(SdpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SdpStatus::kStalled), "stalled");
  EXPECT_STREQ(to_string(SdpStatus::kIterLimit), "iteration-limit");
  EXPECT_STREQ(to_string(SdpStatus::kNumerical), "numerical-failure");
  EXPECT_STREQ(to_string(SdpStatus::kDeadline), "deadline-exceeded");
  EXPECT_STREQ(to_string(SdpStatus::kBadProblem), "bad-problem");
}

TEST(SdpSolver, DeadlineExhaustionReportsStatus) {
  SdpOptions opt;
  opt.time_limit_ms = 1e-7;  // expires before the first iteration completes
  const SdpResult r = solve(min_eig_instance(), opt);
  EXPECT_EQ(r.status, SdpStatus::kDeadline);
}

TEST(SdpSolver, InjectedNumericalFailureReportsStatus) {
  FaultInjector::instance().arm_always("sdp.solve.numerical");
  const SdpResult r = solve(min_eig_instance());
  EXPECT_EQ(r.status, SdpStatus::kNumerical);
  FaultInjector::instance().reset();
  EXPECT_EQ(solve(min_eig_instance()).status, SdpStatus::kOptimal);
}

TEST(SdpSolver, InjectedIterationLimitReportsStatus) {
  FaultInjector::instance().arm_always("sdp.solve.iterlimit");
  const SdpResult r = solve(min_eig_instance());
  EXPECT_EQ(r.status, SdpStatus::kIterLimit);
  FaultInjector::instance().reset();
}

// Regression: res.iterations used to be set at the top of the loop, so the
// iteration-limit path under-reported by one (max_iterations - 1 instead of
// max_iterations completed iterations).
TEST(SdpSolver, IterationLimitReportsCompletedIterations) {
  SdpOptions opt;
  opt.max_iterations = 3;
  opt.tol = 1e-30;  // unreachable: force the iteration-limit path
  const SdpResult r = solve(min_eig_instance(), opt);
  ASSERT_EQ(r.status, SdpStatus::kIterLimit);
  EXPECT_EQ(r.iterations, 3);
}

// Regression: an off-diagonal entry on a diagonal block used to abort the
// process via CPLA_ASSERT inside add_entry. It is an input-shape error, not
// a programmer invariant: validate() rejects it recoverably and solve()
// refuses with kBadProblem instead of silently mis-solving (the diag block
// storage would have dropped the off-diagonal coefficient).
TEST(SdpSolver, RejectsOffDiagonalEntryOnDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  p.add_objective_entry(0, 0, 0, 1.0);
  const int c = p.add_constraint(1.0);
  p.add_entry(c, 0, 0, 1, 1.0);  // off-diagonal on a diagonal block

  const Status vs = p.validate();
  ASSERT_FALSE(vs.is_ok());
  EXPECT_EQ(vs.code(), StatusCode::kBadInput);

  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kBadProblem);
  EXPECT_EQ(r.iterations, 0);
}

TEST(SdpSolver, RejectsOffDiagonalObjectiveEntryOnDiagBlock) {
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDiag, 3}});
  p.add_objective_entry(0, 1, 2, 0.5);
  EXPECT_FALSE(p.validate().is_ok());
  EXPECT_EQ(solve(p).status, SdpStatus::kBadProblem);
}

// Failure accounting contract: kStalled is NOT a failure (the best iterate
// is still returned and downstream accepts it); it is tracked in the
// separate sdp.solve.stalls counter. A rejected problem IS a failure.
TEST(SdpSolverCounters, StallsAreNotFailures) {
  obs::Counter& failures = obs::metrics().counter("sdp.solve.failures");
  obs::Counter& stalls = obs::metrics().counter("sdp.solve.stalls");

  const std::int64_t f0 = failures.value();
  const std::int64_t s0 = stalls.value();
  const SdpResult ok = solve(min_eig_instance());
  ASSERT_EQ(ok.status, SdpStatus::kOptimal);
  EXPECT_EQ(failures.value(), f0);
  EXPECT_EQ(stalls.value(), s0);

  SdpProblem bad({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  const int c = bad.add_constraint(1.0);
  bad.add_entry(c, 0, 0, 1, 1.0);
  ASSERT_EQ(solve(bad).status, SdpStatus::kBadProblem);
  EXPECT_EQ(failures.value(), f0 + 1);
  EXPECT_EQ(stalls.value(), s0);
}

// A lifted assignment relaxation in the shape the CPLA engine emits: a
// moment-style dense block Y = [[1, x'],[x, X]] plus a diagonal slack
// block, with x^2 = x linkage, one-layer-per-segment, and capacity rows.
// Large enough (m > 8) to engage the parallel Schur path.
SdpProblem lifted_instance(int vars, int layers, cpla::Rng* rng) {
  const int dim = 1 + vars * layers;
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, dim},
                BlockSpec{BlockSpec::Kind::kDiag, vars}});
  for (int k = 1; k < dim; ++k) {
    p.add_objective_entry(0, 0, k, 0.5 * rng->uniform(0.1, 1.0));
    if (k + layers < dim) p.add_objective_entry(0, k, k + layers, rng->uniform(-0.2, 0.2));
  }
  const int corner = p.add_constraint(1.0);
  p.add_entry(corner, 0, 0, 0, 1.0);
  for (int k = 1; k < dim; ++k) {
    const int link = p.add_constraint(0.0);
    p.add_entry(link, 0, k, k, 1.0);
    p.add_entry(link, 0, 0, k, -0.5);  // off-diag counts twice
  }
  for (int v = 0; v < vars; ++v) {
    const int pick = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) p.add_entry(pick, 0, 1 + v * layers + l, 1 + v * layers + l, 1.0);
  }
  for (int v = 0; v < vars; ++v) {
    const int cap = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) {
      if (rng->chance(0.5)) p.add_entry(cap, 0, 1 + v * layers + l, 1 + v * layers + l, 1.0);
    }
    p.add_entry(cap, 1, v, v, 1.0);  // slack keeps the row an equality
  }
  return p;
}

void expect_bits_equal(const BlockMatrix& a, const BlockMatrix& b) {
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (std::size_t k = 0; k < a.num_blocks(); ++k) {
    if (a.is_dense(k)) {
      const la::Matrix& ma = a.dense(k);
      const la::Matrix& mb = b.dense(k);
      for (std::size_t i = 0; i < ma.rows(); ++i) {
        for (std::size_t j = 0; j < ma.cols(); ++j) ASSERT_EQ(ma(i, j), mb(i, j));
      }
    } else {
      for (std::size_t i = 0; i < a.diag(k).size(); ++i) ASSERT_EQ(a.diag(k)[i], b.diag(k)[i]);
    }
  }
}

void expect_results_bit_identical(const SdpResult& a, const SdpResult& b) {
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.primal_obj, b.primal_obj);
  EXPECT_EQ(a.dual_obj, b.dual_obj);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) ASSERT_EQ(a.y[i], b.y[i]);
  expect_bits_equal(a.x, b.x);
  expect_bits_equal(a.z, b.z);
}

// The ECO cache replays solutions byte-for-byte, so the solver must be
// bit-identical run to run.
TEST(SdpDeterminism, RepeatedRunsBitIdentical) {
  cpla::Rng rng(42);
  const SdpProblem p = lifted_instance(4, 3, &rng);
  const SdpResult a = solve(p);
  const SdpResult b = solve(p);
  expect_results_bit_identical(a, b);
}

// The parallel paths use a fixed blocking schedule with no
// reduction-order nondeterminism, so a parallel solve is bit-identical to
// a serial one — at any thread count.
TEST(SdpDeterminism, ParallelMatchesSerialBitwise) {
  cpla::Rng rng(43);
  const SdpProblem p = lifted_instance(5, 3, &rng);
  SdpOptions par;
  par.parallel = true;
  SdpOptions ser;
  ser.parallel = false;
  expect_results_bit_identical(solve(p, par), solve(p, ser));
}

#ifdef _OPENMP
TEST(SdpDeterminism, ThreadCountDoesNotChangeBits) {
  cpla::Rng rng(44);
  const SdpProblem p = lifted_instance(5, 4, &rng);
  SdpOptions opt;
  opt.parallel = true;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const SdpResult one = solve(p, opt);
  omp_set_num_threads(4);
  const SdpResult four = solve(p, opt);
  omp_set_num_threads(saved);
  expect_results_bit_identical(one, four);
}
#endif

// The served partition shape (bench/micro_solvers.cpp,
// BM_SdpServedPartition/10): 10 segments x 3 layer options, a 31-dim dense
// block, a 6-pair via chain with every differing-layer combo's product-bound
// rows, 14 capacity rows. m = 139 constraints over 98 diag slack rows.
SdpProblem served_partition_problem(int vars, cpla::Rng* rng) {
  constexpr int kLayers = 3;
  const int caps = vars + 4;
  const auto xi = [](int v, int k) { return 1 + v * kLayers + k; };
  struct Combo {
    int a, b;
  };
  std::vector<Combo> combos;
  for (int v = 1; v + 3 <= vars; ++v) {
    for (int kp = 0; kp < kLayers; ++kp) {
      for (int kc = 0; kc < kLayers; ++kc) {
        if (kp != kc) combos.push_back({xi(v - 1, kp), xi(v, kc)});
      }
    }
  }
  const int n_slack = caps + 2 * static_cast<int>(combos.size());
  SdpProblem p({BlockSpec{BlockSpec::Kind::kDense, 1 + vars * kLayers},
                BlockSpec{BlockSpec::Kind::kDiag, n_slack}});
  for (int v = 0; v < vars; ++v) {
    for (int k = 0; k < kLayers; ++k) p.add_objective_entry(0, xi(v, k), xi(v, k), rng->uniform(1.0, 10.0));
  }
  for (const Combo& c : combos) p.add_objective_entry(0, c.a, c.b, rng->uniform(0.25, 1.5));
  p.add_entry(p.add_constraint(1.0), 0, 0, 0, 1.0);
  for (int k = 1; k <= vars * kLayers; ++k) {
    const int c = p.add_constraint(0.0);
    p.add_entry(c, 0, k, k, 1.0);
    p.add_entry(c, 0, 0, k, -0.5);
  }
  for (int v = 0; v < vars; ++v) {
    const int c = p.add_constraint(1.0);
    for (int k = 0; k < kLayers; ++k) p.add_entry(c, 0, 0, xi(v, k), 0.5);
  }
  int slack = 0;
  for (int r = 0; r < caps; ++r) {
    const int layer = r % kLayers;
    const int c = p.add_constraint(static_cast<double>(rng->uniform_int(1, 3)));
    for (int v = 0; v < vars; ++v) {
      if (rng->chance(0.3)) p.add_entry(c, 0, 0, xi(v, layer), 0.5);
    }
    p.add_entry(c, 1, slack, slack, 1.0);
    ++slack;
  }
  for (const Combo& c : combos) {
    const int lo = p.add_constraint(0.0);
    p.add_entry(lo, 0, c.a, c.b, 0.5);
    p.add_entry(lo, 1, slack, slack, -1.0);
    ++slack;
    const int hi = p.add_constraint(-1.0);
    p.add_entry(hi, 0, c.a, c.b, 0.5);
    p.add_entry(hi, 0, 0, c.a, -0.5);
    p.add_entry(hi, 0, 0, c.b, -0.5);
    p.add_entry(hi, 1, slack, slack, -1.0);
    ++slack;
  }
  return p;
}

/// FNV-1a 64 over the bit patterns of every entry, block by block.
std::uint64_t bits_hash(const BlockMatrix& a) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double v) {
    std::uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t k = 0; k < a.num_blocks(); ++k) {
    if (a.is_dense(k)) {
      const la::Matrix& d = a.dense(k);
      for (std::size_t i = 0; i < d.rows(); ++i)
        for (std::size_t j = 0; j < d.cols(); ++j) mix(d(i, j));
    } else {
      for (double v : a.diag(k)) mix(v);
    }
  }
  return h;
}

// Golden for the served shape, pinned bit for bit: the interior-point
// kernels may get faster but must not move a single result bit (the ECO
// cache and every flow hash replay these solutions).
TEST(SdpGolden, ServedPartitionShapeIsBitExact) {
  cpla::Rng rng(7);
  const SdpProblem p = served_partition_problem(10, &rng);
  ASSERT_EQ(p.num_constraints(), 139);
  const SdpResult r = solve(p);
  EXPECT_EQ(r.status, SdpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 21);
  EXPECT_EQ(r.primal_obj, 0x1.4edc118e27d73p+5);
  EXPECT_EQ(r.dual_obj, 0x1.4edc0fef17d2ap+5);
  EXPECT_EQ(bits_hash(r.x), 0x9e99f366a1581956ULL);
}

// The per-entry Schur kernel as it stood before the packed assembly,
// verbatim: the bit-exact oracle for detail::SchurAssembly.
double parent_schur_entry(const SdpProblem& p, int i, int j, const BlockMatrix& zinv,
                          const BlockMatrix& x) {
  double sum = 0.0;
  for (const auto& e : p.constraint(i).entries) {
    for (const auto& f : p.constraint(j).entries) {
      if (e.block != f.block) continue;
      if (zinv.is_dense(e.block)) {
        const auto& zi = zinv.dense(e.block);
        const auto& xb = x.dense(e.block);
        double t = zi(e.col, f.row) * xb(f.col, e.row);
        if (e.row != e.col) t += zi(e.row, f.row) * xb(f.col, e.col);
        if (f.row != f.col) t += zi(e.col, f.col) * xb(f.row, e.row);
        if (e.row != e.col && f.row != f.col) t += zi(e.row, f.col) * xb(f.row, e.col);
        sum += e.value * f.value * t;
      } else if (e.row == f.row) {
        sum += e.value * f.value * zinv.diag(e.block)[e.row] * x.diag(e.block)[e.row];
      }
    }
  }
  return sum;
}

// Two dense blocks around a diag block, 1-7 entries per constraint drawn
// across all three in random order (so blocks interleave within a
// constraint), diag rows drawn from a small pool (so constraints share
// them), and Z^{-1}, X filled with unsymmetric noise (so a swapped index
// cannot hide behind symmetry).
struct SchurCase {
  SdpProblem problem;
  BlockMatrix zinv;
  BlockMatrix x;
};

SchurCase random_schur_case(std::uint64_t seed) {
  cpla::Rng rng(seed);
  const BlockStructure structure = {BlockSpec{BlockSpec::Kind::kDense, 9},
                                    BlockSpec{BlockSpec::Kind::kDiag, 6},
                                    BlockSpec{BlockSpec::Kind::kDense, 5}};
  SchurCase c{SdpProblem(structure), BlockMatrix(structure), BlockMatrix(structure)};
  const int m = 40;
  for (int i = 0; i < m; ++i) {
    const int ci = c.problem.add_constraint(rng.uniform(-1.0, 1.0));
    const auto entries = rng.uniform_int(1, 7);
    for (std::int64_t e = 0; e < entries; ++e) {
      const int block = static_cast<int>(rng.uniform_int(0, 2));
      const int dim = structure[static_cast<std::size_t>(block)].dim;
      int row = static_cast<int>(rng.uniform_int(0, dim - 1));
      int col = row;
      if (structure[static_cast<std::size_t>(block)].kind == BlockSpec::Kind::kDense &&
          rng.chance(0.6)) {
        col = static_cast<int>(rng.uniform_int(0, dim - 1));
        if (col < row) std::swap(row, col);
      }
      c.problem.add_entry(ci, block, row, col, rng.uniform(-2.0, 2.0));
    }
  }
  for (BlockMatrix* w : {&c.zinv, &c.x}) {
    for (std::size_t b = 0; b < structure.size(); ++b) {
      if (w->is_dense(b)) {
        la::Matrix& d = w->dense(b);
        for (std::size_t r = 0; r < d.rows(); ++r)
          for (std::size_t q = 0; q < d.cols(); ++q) d(r, q) = rng.normal();
      } else {
        for (double& v : w->diag(b)) v = rng.normal();
      }
    }
  }
  return c;
}

void expect_schur_is_parent(const SchurCase& c, bool parallel) {
  const detail::SchurAssembly assembly(c.problem);
  const la::Matrix schur = assembly.assemble(c.zinv, c.x, parallel);
  const int m = c.problem.num_constraints();
  ASSERT_EQ(schur.rows(), static_cast<std::size_t>(m));
  ASSERT_EQ(schur.cols(), static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j; ++i) {
      const double ref = parent_schur_entry(c.problem, i, j, c.zinv, c.x);
      ASSERT_EQ(schur(i, j), ref) << i << "," << j;
      ASSERT_EQ(schur(j, i), ref) << j << "," << i;
    }
  }
}

TEST(SchurAssembly, BitwiseTheParentKernelSerial) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_schur_is_parent(random_schur_case(seed), /*parallel=*/false);
  }
}

#ifdef _OPENMP
TEST(SchurAssembly, BitwiseTheParentKernelAtOneAndFourThreads) {
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (std::uint64_t seed = 11; seed <= 18; ++seed) {
      expect_schur_is_parent(random_schur_case(seed), /*parallel=*/true);
    }
  }
  omp_set_num_threads(saved);
}
#endif

// The interior point's wall time splits into four leaves plus an
// unattributed remainder, recorded once per solve on every exit path; the
// five add back up to sdp.solve.ms.
TEST(SdpSolverCounters, LeafTimesAddUpToSolveTime) {
  obs::MetricsRegistry& reg = obs::metrics();
  obs::Counter& calls = reg.counter("sdp.solve.calls");
  obs::Histogram& total = reg.histogram("sdp.solve.ms");
  obs::Histogram* leaves[] = {&reg.histogram("sdp.solve.schur_ms"),
                              &reg.histogram("sdp.solve.factor_ms"),
                              &reg.histogram("sdp.solve.direction_ms"),
                              &reg.histogram("sdp.solve.step_ms"),
                              &reg.histogram("sdp.solve.other_ms")};
  const std::int64_t calls0 = calls.value();
  const std::int64_t total_count0 = total.count();
  const double total0 = total.sum();
  std::int64_t counts0[5];
  double sums0[5];
  for (int k = 0; k < 5; ++k) {
    counts0[k] = leaves[k]->count();
    sums0[k] = leaves[k]->sum();
  }

  cpla::Rng rng(45);
  ASSERT_EQ(solve(lifted_instance(4, 3, &rng)).status, SdpStatus::kOptimal);
  ASSERT_EQ(solve(min_eig_instance()).status, SdpStatus::kOptimal);
  SdpOptions capped;
  capped.max_iterations = 2;
  EXPECT_EQ(solve(min_eig_instance(), capped).status, SdpStatus::kIterLimit);
  SdpProblem bad({BlockSpec{BlockSpec::Kind::kDiag, 2}});
  bad.add_entry(bad.add_constraint(1.0), 0, 0, 1, 1.0);
  EXPECT_EQ(solve(bad).status, SdpStatus::kBadProblem);

  const std::int64_t solves = calls.value() - calls0;
  ASSERT_EQ(solves, 4);
  EXPECT_EQ(total.count() - total_count0, solves);
  double split = 0.0;
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(leaves[k]->count() - counts0[k], solves) << k;
    split += leaves[k]->sum() - sums0[k];
  }
  EXPECT_GE(leaves[4]->min(), 0.0);
  const double spent = total.sum() - total0;
  EXPECT_GT(spent, 0.0);
  EXPECT_NEAR(split, spent, 1e-9 * spent);
}

}  // namespace
}  // namespace cpla::sdp
