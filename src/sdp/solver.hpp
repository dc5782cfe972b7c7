#pragma once

// Primal-dual interior-point SDP solver (HKM search direction, Mehrotra
// predictor-corrector), in the style of CSDP [Borchers 1999], which the
// paper uses. Solves
//
//   min  C . X   s.t.  A_i . X = b_i,  X >= 0 (block PSD)
//
// with dual  max b'y  s.t.  Z = C - sum_i y_i A_i >= 0.
//
// Infeasible start from scaled identities; each iteration solves the Schur
// system M dy = r with M_ij = tr(A_i Z^{-1} A_j X).

#include "src/sdp/problem.hpp"

namespace cpla::sdp {

enum class [[nodiscard]] SdpStatus {
  kOptimal,     // primal/dual feasible within tolerance, gap closed
  kStalled,     // progress stopped before tolerance; solution still returned
  kIterLimit,   // iteration cap reached
  kNumerical,   // Schur factorization failed beyond recovery, or a
                // non-finite iterate was detected
  kDeadline,    // wall-clock budget (time_limit_ms) exhausted
  kBadProblem,  // SdpProblem::validate() rejected the input (e.g. an
                // off-diagonal entry on a diagonal block); nothing solved
};

const char* to_string(SdpStatus status);

struct SdpOptions {
  int max_iterations = 100;
  double tol = 1e-7;         // relative feasibility + gap tolerance
  double step_fraction = 0.98;
  double time_limit_ms = 0.0;  // wall-clock budget; 0 = unlimited
  // Enables the deterministic OpenMP paths (Schur columns, per-block
  // BlockMatrix work). Results are bit-identical to a serial solve at any
  // thread count; see DESIGN.md "Dense kernel architecture".
  bool parallel = true;
};

struct SdpResult {
  SdpStatus status = SdpStatus::kIterLimit;
  BlockMatrix x;       // primal solution
  la::Vector y;        // dual multipliers
  BlockMatrix z;       // dual slack
  double primal_obj = 0.0;
  double dual_obj = 0.0;
  double rel_gap = 0.0;
  double primal_infeas = 0.0;
  double dual_infeas = 0.0;
  int iterations = 0;  // fully completed interior-point iterations
};

SdpResult solve(const SdpProblem& problem, const SdpOptions& options = {});

namespace detail {

/// The Schur complement M_ij = tr(A_i Z^{-1} A_j X) of one solve, over a
/// read-only copy of the constraints built once per solve: each
/// constraint's entries in stored order, and again grouped by block (stored
/// order within a group). solve() is its only production caller; it is
/// declared here so tests can hold it bitwise to the per-entry reference.
class SchurAssembly {
 public:
  explicit SchurAssembly(const SdpProblem& problem);

  /// The full symmetric m x m matrix. `parallel` spreads rows over OpenMP
  /// threads; each entry is summed by one thread in a fixed order, so M is
  /// bit-identical at any thread count.
  la::Matrix assemble(const BlockMatrix& zinv, const BlockMatrix& x, bool parallel) const;

 private:
  struct Unit {
    int row = 0;
    int col = 0;
    double value = 0.0;
  };
  std::size_t num_blocks_ = 0;
  std::vector<ConstraintEntry> stored_;  // constraint i: [stored_at_[i], stored_at_[i + 1])
  std::vector<std::size_t> stored_at_;
  std::vector<Unit> grouped_;  // constraint i, block b: [group_at_[g], group_at_[g + 1]),
  std::vector<std::size_t> group_at_;  // g = i * num_blocks_ + b
};

}  // namespace detail

}  // namespace cpla::sdp
