#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sta/timing_graph.hpp"
#include "src/util/check.hpp"

// Top-K critical-path extraction: best-first branch-and-bound over path
// prefixes. Every endpoint shares the corner's effective required time, so
// the K smallest-slack paths are exactly the K longest-delay source-to-
// endpoint paths. Each prefix is scored by an exact admissible bound —
// prefix delay plus the longest completion from its last node — so pops
// come out in non-increasing score order and the search emits exactly K
// complete paths, never enumerating a (K+1)-th. Ties break toward the
// lexicographically smaller node sequence; since no complete path can be a
// strict prefix of another (endpoints have no out-edges), prefix order and
// final path order agree, making the report fully deterministic. This TU
// is registered in the bit-identity contract.

namespace cpla::sta {

namespace {

struct Prefix {
  std::vector<int> nodes;
  double delay = 0.0;  // exact delay of the prefix
  double bound = 0.0;  // delay + longest completion from nodes.back()
};

// Max-heap order: larger bound first, ties to the lex-smaller sequence.
struct PrefixWorse {
  bool operator()(const Prefix& a, const Prefix& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    return b.nodes < a.nodes;
  }
};

}  // namespace

std::vector<TimingPath> TimingGraph::report_top_k_paths(int corner, int k) const {
  static obs::Counter& reports = obs::metrics().counter("sta.paths.reports");
  static obs::Counter& heap_pops = obs::metrics().counter("sta.paths.heap_pops");
  CPLA_ASSERT(corner >= 0 && corner < num_corners());
  reports.add();

  std::vector<TimingPath> out;
  const int n = num_nodes();
  if (k <= 0 || n == 0) return out;
  auto delay = [&](int e) { return edge_delay(corner, e); };
  const double required = effective_required_[corner];

  // Longest completion per node, computed against the level order in
  // descending (level, id) sequence so every successor is final first.
  std::vector<double> completion(n, 0.0);
  for (int i = n - 1; i >= 0; --i) {
    const int v = level_nodes_[i];
    double best = 0.0;
    for (int e = out_begin_[v]; e < out_begin_[v + 1]; ++e) {
      if (!edge_enabled_[e]) continue;
      best = std::max(best, delay(e) + completion[edge_to_[e]]);
    }
    completion[v] = best;  // 0 at endpoints
  }

  std::priority_queue<Prefix, std::vector<Prefix>, PrefixWorse> heap;
  for (int v = 0; v < n; ++v) {
    bool has_in = false;
    for (int i = in_begin_[v]; i < in_begin_[v + 1] && !has_in; ++i) {
      has_in = edge_enabled_[in_edge_[i]] != 0;
    }
    if (!has_in) heap.push(Prefix{{v}, 0.0, completion[v]});  // primary input
  }

  while (!heap.empty() && static_cast<int>(out.size()) < k) {
    Prefix top = heap.top();
    heap.pop();
    heap_pops.add();
    const int last = top.nodes.back();
    bool has_out = false;
    for (int e = out_begin_[last]; e < out_begin_[last + 1]; ++e) {
      if (!edge_enabled_[e]) continue;
      has_out = true;
      Prefix child;
      child.nodes = top.nodes;
      child.nodes.push_back(edge_to_[e]);
      child.delay = top.delay + delay(e);
      child.bound = child.delay + completion[edge_to_[e]];
      heap.push(std::move(child));
    }
    if (!has_out) {
      // Endpoint: the prefix is a complete path; bound == delay.
      TimingPath path;
      path.nodes = std::move(top.nodes);
      path.delay = top.delay;
      path.required = required;
      path.slack = required - top.delay;
      out.push_back(std::move(path));
    }
  }
  return out;
}

}  // namespace cpla::sta
