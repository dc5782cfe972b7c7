// Component micro-benchmarks (google-benchmark): the math substrates —
// dense linear algebra, simplex LP, branch-and-bound ILP, interior-point
// SDP — at the sizes the CPLA partitions produce.

#include <benchmark/benchmark.h>

#include "bench/micro_main.hpp"

#include "src/ilp/branch_bound.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/eigen.hpp"
#include "src/lp/simplex.hpp"
#include "src/sdp/solver.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace cpla;

la::Matrix random_spd(std::size_t n, Rng* rng) {
  la::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng->normal();
  la::Matrix a = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_Cholesky(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_spd(n, &rng);
  for (auto _ : state) {
    auto chol = la::Cholesky::factor(a);
    benchmark::DoNotOptimize(chol);
  }
}
BENCHMARK(BM_Cholesky)->Arg(16)->Arg(64)->Arg(128);

void BM_EigenSym(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_spd(n, &rng);
  for (auto _ : state) {
    auto e = la::eigen_sym(a);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EigenSym)->Arg(16)->Arg(48);

void BM_SimplexLp(benchmark::State& state) {
  Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  lp::LpProblem p;
  for (int j = 0; j < n; ++j) p.add_var(0.0, 1.0, rng.uniform(-1.0, 1.0));
  for (int i = 0; i < n / 2; ++i) {
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < n; ++j) {
      if (rng.chance(0.5)) row.push_back({j, rng.uniform(0.1, 1.0)});
    }
    if (row.empty()) row.push_back({0, 1.0});
    p.add_row(lp::Sense::kLe, rng.uniform(1.0, 4.0), row);
  }
  for (auto _ : state) {
    auto r = lp::solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimplexLp)->Arg(20)->Arg(60);

void BM_BranchBoundKnapsack(benchmark::State& state) {
  Rng rng(4);
  const int n = static_cast<int>(state.range(0));
  ilp::MipModel m;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < n; ++j) {
    m.add_binary(-rng.uniform(1.0, 10.0));
    row.push_back({j, rng.uniform(1.0, 5.0)});
  }
  m.add_row(lp::Sense::kLe, n * 0.8, row);
  for (auto _ : state) {
    auto r = solve_mip(m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BranchBoundKnapsack)->Arg(10)->Arg(16);

void BM_SdpMinEigenvalue(benchmark::State& state) {
  Rng rng(5);
  const int n = static_cast<int>(state.range(0));
  sdp::SdpProblem p({sdp::BlockSpec{sdp::BlockSpec::Kind::kDense, n}});
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) p.add_objective_entry(0, i, j, rng.uniform(-1.0, 1.0));
  }
  const int tr = p.add_constraint(1.0);
  for (int i = 0; i < n; ++i) p.add_entry(tr, 0, i, i, 1.0);
  for (auto _ : state) {
    auto r = sdp::solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SdpMinEigenvalue)->Arg(8)->Arg(24)->Arg(48);

// A lifted-partition-style instance shaped like the SDPs core/sdp_engine.cpp
// emits: dense block of 1 + vars*layers binary-relaxation variables, a diag
// slack block, and the characteristic constraint mix (Y00 pin, diagonal
// linkage, one-layer-per-segment rows, capacity rows with slack). This is
// the solver's production workload; m grows with the dense dimension, so it
// exercises the Schur assembly much harder than the single-constraint
// min-eigenvalue case above.
sdp::SdpProblem lifted_partition_problem(int vars, int layers, Rng* rng) {
  const int dense_dim = 1 + vars * layers;
  const int caps = vars;
  sdp::SdpProblem p({sdp::BlockSpec{sdp::BlockSpec::Kind::kDense, dense_dim},
                     sdp::BlockSpec{sdp::BlockSpec::Kind::kDiag, caps}});
  for (int k = 1; k < dense_dim; ++k) {
    p.add_objective_entry(0, 0, k, 0.5 * rng->uniform(0.1, 1.0));
  }
  for (int k = 1; k + layers < dense_dim; ++k) {
    p.add_objective_entry(0, k, k + layers, rng->uniform(-0.2, 0.2));
  }
  const int c0 = p.add_constraint(1.0);
  p.add_entry(c0, 0, 0, 0, 1.0);
  for (int k = 1; k < dense_dim; ++k) {
    const int c = p.add_constraint(0.0);
    p.add_entry(c, 0, k, k, 1.0);
    p.add_entry(c, 0, 0, k, -0.5);
  }
  for (int v = 0; v < vars; ++v) {
    const int c = p.add_constraint(1.0);
    for (int l = 0; l < layers; ++l) {
      p.add_entry(c, 0, 0, 1 + v * layers + l, 0.5);
    }
  }
  for (int r = 0; r < caps; ++r) {
    const int c = p.add_constraint(rng->uniform(1.0, 2.0));
    for (int v = 0; v < vars; ++v) {
      if (!rng->chance(0.4)) continue;
      const int l = static_cast<int>(rng->uniform_int(0, layers - 1));
      p.add_entry(c, 0, 0, 1 + v * layers + l, 0.5 * rng->uniform(0.5, 1.0));
    }
    p.add_entry(c, 1, r, r, 1.0);
  }
  return p;
}

void BM_SdpLiftedPartition(benchmark::State& state) {
  Rng rng(6);
  const int vars = static_cast<int>(state.range(0));
  const sdp::SdpProblem p = lifted_partition_problem(vars, /*layers=*/4, &rng);
  for (auto _ : state) {
    auto r = sdp::solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SdpLiftedPartition)->Arg(8)->Arg(16)->Arg(24);

// The shape of the SDPs served resolves spend their time in: `vars`
// segments with 3 layer options each (a 31-dim dense block at 10), a chain
// of vars-3 parent/child via pairs whose differing-layer combos all carry
// the two product-bound rows, and vars+4 capacity rows. At 10 that is
// m = 139 constraints over 98 diag slack rows, with at most 4 entries per
// constraint; rows are emitted in core/sdp_engine.cpp's order.
sdp::SdpProblem served_partition_problem(int vars, Rng* rng) {
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
  sdp::SdpProblem p({sdp::BlockSpec{sdp::BlockSpec::Kind::kDense, 1 + vars * kLayers},
                     sdp::BlockSpec{sdp::BlockSpec::Kind::kDiag, n_slack}});
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

void BM_SdpServedPartition(benchmark::State& state) {
  Rng rng(7);
  const sdp::SdpProblem p = served_partition_problem(static_cast<int>(state.range(0)), &rng);
  for (auto _ : state) {
    auto r = sdp::solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SdpServedPartition)->Arg(10);

}  // namespace

CPLA_MICRO_BENCH_MAIN("micro_solvers")
