#pragma once

// Shared fixtures for the ECO suites: a small deterministic bench instance,
// the state-equality assertions the equivalence contract is stated in, and
// a scoped OpenMP thread count.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>

#include "src/core/flow.hpp"
#include "src/core/pipeline.hpp"
#include "src/gen/synth.hpp"

namespace cpla::eco {

inline core::Prepared make_bench(std::uint64_t seed, int size = 20, int nets = 200) {
  gen::SynthSpec spec;
  spec.xsize = spec.ysize = size;
  spec.num_nets = nets;
  spec.num_layers = 6;
  spec.seed = seed;
  return core::prepare(gen::generate(spec));
}

/// Bit-identical assignment equality: every net's layer vector matches.
inline void expect_assignments_equal(const assign::AssignState& a,
                                     const assign::AssignState& b) {
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (int net = 0; net < a.num_nets(); ++net) {
    EXPECT_EQ(a.layers(net), b.layers(net)) << "net " << net << " diverged";
  }
}

/// Bit-identical timing/overflow equality over a shared critical set.
inline void expect_metrics_equal(const assign::AssignState& a, const assign::AssignState& b,
                                 const timing::RcTable& rc, const core::CriticalSet& critical) {
  const core::LaMetrics ma = core::compute_metrics(a, rc, critical);
  const core::LaMetrics mb = core::compute_metrics(b, rc, critical);
  EXPECT_EQ(ma.avg_tcp, mb.avg_tcp);
  EXPECT_EQ(ma.max_tcp, mb.max_tcp);
  EXPECT_EQ(ma.via_overflow, mb.via_overflow);
  EXPECT_EQ(ma.via_count, mb.via_count);
  EXPECT_EQ(ma.wire_overflow, mb.wire_overflow);
}

#ifdef _OPENMP
/// Sets the calling thread's OpenMP thread count for one scope.
class ScopedOmpThreads {
 public:
  explicit ScopedOmpThreads(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ScopedOmpThreads() { omp_set_num_threads(saved_); }
  ScopedOmpThreads(const ScopedOmpThreads&) = delete;
  ScopedOmpThreads& operator=(const ScopedOmpThreads&) = delete;

 private:
  int saved_;
};
#endif

}  // namespace cpla::eco
