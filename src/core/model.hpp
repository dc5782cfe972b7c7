#pragma once

// The per-partition optimization model shared by the SDP and ILP engines.
// It is the data of formulation (4): released segments with their allowed
// layers and linear timing costs ts(i,j) (including vias to *fixed*
// neighbors, sink/source pin vias, and via-capacity penalties), quadratic
// via couplings tv(i,j,p,q) between released segment pairs, and the pruned
// edge-capacity rows (4c). Downstream capacitances are frozen at their
// current values during a solve (recomputed between flow rounds), exactly
// as the paper's iterative scheme does.

#include <unordered_map>
#include <vector>

#include "src/assign/state.hpp"
#include "src/core/partition.hpp"
#include "src/timing/elmore.hpp"

namespace cpla::core {

struct ModelOptions {
  double branch_weight = 0.3;  // weight floor for off-critical-path segments
  // Exponent of the global net-criticality factor (net Tcp / worst released
  // Tcp)^gamma multiplied into segment weights. Problem 1 minimizes the
  // *maximum* path timing; this makes the globally-worst nets win capacity
  // races against faster released nets. 0 disables it.
  double max_focus_gamma = 2.0;

  // --- Ablation switches (see bench/ablation_cpla) -----------------------
  bool polish = true;           // coordinate-descent polish after rounding
  bool incumbent_guard = true;  // never commit a model-objective regression
  bool rlt_rows = true;         // RLT product rows in the SDP relaxation
};

struct VarGroup {
  int net = -1;
  int seg = -1;
  int current_layer = -1;
  double weight = 1.0;
  std::vector<int> layers;   // allowed layers (direction-matching, capacity-feasible)
  std::vector<double> cost;  // linear cost per allowed layer
};

struct VarPair {
  int child = -1;   // index into PartitionProblem::vars
  int parent = -1;  // index into vars
  grid::XY junction;
  double scale = 0.0;              // weight * min(Cd_child, Cd_parent)
  std::vector<double> load_ratio;  // per layer: via-site load / capacity at the junction
};

struct CapRow {
  int layer = -1;
  int edge = -1;
  int cap_remaining = 0;
  std::vector<int> members;  // var indices that cross the edge and may pick `layer`
};

struct PartitionProblem {
  std::vector<VarGroup> vars;
  std::vector<VarPair> pairs;
  std::vector<CapRow> cap_rows;
  const timing::RcTable* rc = nullptr;
  ModelOptions options;
  // Extent of the partition region the problem was built from, half-open
  // [x0,x1) x [y0,y1). Part of the ECO solution-cache key.
  int region_x0 = 0, region_y0 = 0, region_x1 = 0, region_y1 = 0;

  /// Quadratic via cost tv for a pair when child sits on lc and parent on
  /// lp: via-stack resistance * frozen downstream cap * weight, plus the
  /// congestion penalty lambda (existing via load / capacity, summed over
  /// the intermediate layers), mirroring Section 3.3.
  double pair_cost(const VarPair& pair, int lp, int lc) const;

  /// Objective value of a complete choice (index per var into its layers).
  double evaluate(const std::vector<int>& pick) const;
};

/// Option index of each var's current layer: the no-op pick every engine
/// and guard tier measures against (0 when the current layer is not among
/// the var's options).
std::vector<int> incumbent_pick(const PartitionProblem& problem);

/// True if `pick` keeps every capacity row within its remaining budget.
bool rows_feasible(const PartitionProblem& problem, const std::vector<int>& pick);

/// Coordinate-descent polish of an integral pick on the exact model
/// objective, staying inside the capacity rows. Shared by the SDP
/// post-mapping stage and the ILP engine (removes rounding/truncation
/// noise).
void polish_pick(const PartitionProblem& problem, std::vector<int>* pick);

/// One released net's timing as a flow round freezes it for its solves.
struct FrozenNet {
  timing::NetTiming timing;
  // The global net-criticality factor (net Tcp / worst frozen Tcp)^gamma
  // of ModelOptions::max_focus_gamma; 1 when gamma is 0.
  double focus = 1.0;
};
using RoundTiming = std::unordered_map<int, FrozenNet>;

/// Times `nets` at their current layers and derives each one's focus
/// factor against the worst of them, once per round.
RoundTiming freeze_timing(const assign::AssignState& state, const timing::RcTable& rc,
                          const std::vector<int>& nets, const ModelOptions& options);

/// Builds the model for one partition region. `timing` must hold an entry
/// for every net with a segment in the region.
PartitionProblem build_partition_problem(const assign::AssignState& state,
                                         const timing::RcTable& rc, const RoundTiming& timing,
                                         const PartitionRegion& region,
                                         const ModelOptions& options);

}  // namespace cpla::core
