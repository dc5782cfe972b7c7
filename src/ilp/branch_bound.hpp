#pragma once

// Branch-and-bound mixed-integer solver over the simplex LP relaxation.
// Stands in for GUROBI on the paper's ILP formulation (Section 3.1). The
// CPLA partitioner caps instances at ~10 segments, so exact search is
// practical; depth-first with best-bound pruning keeps memory trivial.

#include <vector>

#include "src/lp/simplex.hpp"

namespace cpla::ilp {

enum class [[nodiscard]] MipStatus {
  kOptimal,     // proven optimal
  kFeasible,    // incumbent found, search truncated by a limit
  kInfeasible,  // no integer-feasible point
  kLimit,       // limit hit with no incumbent
};

const char* to_string(MipStatus status);

class MipModel {
 public:
  /// Adds a continuous variable.
  int add_var(double lo, double up, double cost);

  /// Adds an integer variable (branching enabled).
  int add_int_var(double lo, double up, double cost);

  /// Adds a binary variable.
  int add_binary(double cost) { return add_int_var(0.0, 1.0, cost); }

  void add_row(lp::Sense sense, double rhs, std::vector<std::pair<int, double>> coeffs) {
    lp_.add_row(sense, rhs, std::move(coeffs));
  }

  const lp::LpProblem& lp() const { return lp_; }
  lp::LpProblem& lp() { return lp_; }
  const std::vector<int>& integer_vars() const { return integer_vars_; }

 private:
  lp::LpProblem lp_;
  std::vector<int> integer_vars_;
};

struct MipOptions {
  double time_limit_s = 1e9;
  long max_nodes = 5'000'000;
};

struct MipResult {
  MipStatus status = MipStatus::kLimit;
  double objective = 0.0;
  la::Vector x;
  long nodes = 0;
  double best_bound = -lp::kInf;
};

MipResult solve_mip(const MipModel& model, const MipOptions& options = {});

}  // namespace cpla::ilp
