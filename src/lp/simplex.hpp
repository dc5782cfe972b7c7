#pragma once

// Bounded-variable two-phase revised simplex (dense). This is the LP engine
// under the branch-and-bound ILP solver that stands in for GUROBI in the
// paper's ILP formulation (Section 3.1). Problem sizes are partition-scale
// (tens of variables/rows), so each iteration refactorizes the basis — simple
// and numerically safe at this scale.

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/la/matrix.hpp"

namespace cpla::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kLe, kGe, kEq };

enum class [[nodiscard]] LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

const char* to_string(LpStatus status);

/// A minimization LP: min c'x  s.t.  rows, lo <= x <= up.
class LpProblem {
 public:
  /// Adds a variable; returns its index.
  int add_var(double lo, double up, double cost);

  /// Adds a constraint over (var, coefficient) pairs.
  void add_row(Sense sense, double rhs, std::vector<std::pair<int, double>> coeffs);

  /// Overwrites the objective coefficient of a variable.
  void set_cost(int var, double cost);

  /// Tightens a variable's bounds (used by branch-and-bound).
  void set_bounds(int var, double lo, double up);

  int num_vars() const { return static_cast<int>(cost_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  double lower(int var) const { return lo_[var]; }
  double upper(int var) const { return up_[var]; }
  double cost(int var) const { return cost_[var]; }

  struct Row {
    Sense sense;
    double rhs;
    std::vector<std::pair<int, double>> coeffs;
  };
  const Row& row(int i) const { return rows_[i]; }

 private:
  std::vector<double> lo_, up_, cost_;
  std::vector<Row> rows_;
};

struct LpOptions {
  int max_iterations = 20000;
};

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  la::Vector x;      // primal solution (structural variables only)
  la::Vector duals;  // one multiplier per row
  int iterations = 0;
};

LpResult solve(const LpProblem& problem, const LpOptions& options = {});

}  // namespace cpla::lp
