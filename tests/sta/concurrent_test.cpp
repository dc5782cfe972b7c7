#include "src/sta/timing_graph.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.hpp"
#include "tests/eco/eco_test_util.hpp"
#include "tests/sta/sta_test_util.hpp"

namespace cpla::sta {
namespace {

#ifdef _OPENMP
// ThreadSanitizer cannot see libgomp's barriers and halts on a false report
// at the end of any region that ran on more than one thread (the reason the
// tsan test preset pins OMP_NUM_THREADS=1), so a TSan build runs the
// parallel side at one thread too; every other build compares one thread
// against four.
#if defined(__SANITIZE_THREAD__)
#define CPLA_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CPLA_TSAN_BUILD 1
#endif
#endif
#ifdef CPLA_TSAN_BUILD
constexpr int kParallelThreads = 1;
#else
constexpr int kParallelThreads = 4;
#endif

/// Runs `fn` at `threads` OpenMP threads.
template <typename Fn>
void with_omp_threads(int threads, Fn fn) {
  const eco::ScopedOmpThreads scoped(threads);
  fn();
}

// The level-parallel propagation (OpenMP over the nodes of a wide level)
// must give the same bits at any thread count: nodes within a level write
// disjoint entries and read only earlier levels, and every in-edge
// reduction runs in the pinned ascending-edge-id order.
TEST(ConcurrentSta, ParallelBuildMatchesSerialBitwise) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());

  TimingGraph serial_graph, parallel_graph;
  with_omp_threads(1, [&] { serial_graph.build(*run.state, set); });
  with_omp_threads(kParallelThreads, [&] { parallel_graph.build(*run.state, set); });

  expect_graphs_bit_identical(parallel_graph, serial_graph);
}

TEST(ConcurrentSta, ParallelIncrementalUpdatesMatchSerialBitwise) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());

  TimingGraph serial_graph, parallel_graph;
  with_omp_threads(1, [&] { serial_graph.build(*run.state, set); });
  with_omp_threads(kParallelThreads, [&] { parallel_graph.build(*run.state, set); });

  Rng rng(77);
  for (int step = 0; step < 6; ++step) {
    for (int n = 0; n < run.state->num_nets(); ++n) {
      const route::SegTree& tree = run.state->tree(n);
      if (tree.segs.empty() || !rng.chance(0.1)) continue;
      std::vector<int> layers = run.state->layers(n);
      for (std::size_t s = 0; s < layers.size(); ++s) {
        if (!rng.chance(0.5)) continue;
        const std::vector<int>& allowed = run.state->allowed_layers(tree.segs[s].horizontal);
        layers[s] = allowed[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(allowed.size()) - 1))];
      }
      run.state->set_layers(n, std::move(layers));
    }
    with_omp_threads(1, [&] { serial_graph.update(*run.state); });
    with_omp_threads(kParallelThreads, [&] { parallel_graph.update(*run.state); });
    SCOPED_TRACE(step);
    expect_graphs_bit_identical(parallel_graph, serial_graph);
  }
}
#endif

// Snapshot readers: a built graph is immutable under its read API, so any
// number of threads may query slack / paths concurrently (the tsan preset
// stands over this). Every reader must see the same answers.
TEST(ConcurrentSta, ManyReadersSeeIdenticalAnswers) {
  core::Prepared run = sta_bench();
  CornerSet set(*run.rc, three_corners());
  TimingGraph graph;
  graph.build(*run.state, set);

  const double ref_worst = graph.worst_slack();
  const std::vector<TimingPath> ref_paths = graph.report_top_k_paths(0, 16);

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 20; ++iter) {
        if (!same_bits(graph.worst_slack(), ref_worst)) ++mismatches[t];
        const std::vector<TimingPath> paths = graph.report_top_k_paths(0, 16);
        if (paths.size() != ref_paths.size()) {
          ++mismatches[t];
          continue;
        }
        for (std::size_t i = 0; i < paths.size(); ++i) {
          if (paths[i].nodes != ref_paths[i].nodes ||
              !same_bits(paths[i].slack, ref_paths[i].slack)) {
            ++mismatches[t];
          }
        }
        for (int n = 0; n < run.state->num_nets(); n += 7) {
          if (graph.has_net(n) && graph.net_slack(n) > graph.worst_slack(graph.driver_node(n))) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace cpla::sta
