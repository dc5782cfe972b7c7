#include "src/timing/elmore.hpp"

#include <algorithm>

#include "src/obs/metrics.hpp"
#include "src/util/check.hpp"

namespace cpla::timing {

ElmoreSummary elmore_delays(const route::SegTree& tree, const std::vector<int>& layers,
                            const RcTable& rc, std::span<double> downstream_cap,
                            std::span<double> arrival, std::span<double> sink_delay) {
  const std::size_t n = tree.segs.size();
  CPLA_ASSERT(layers.size() == n);
  CPLA_ASSERT(downstream_cap.size() >= n && arrival.size() >= n &&
              sink_delay.size() >= tree.sinks.size());
  static obs::Counter& evals = obs::metrics().counter("timing.elmore.evals");
  evals.add();
  ElmoreSummary out;
  double* const cd = downstream_cap.data();
  std::fill(cd, cd + n, 0.0);

  auto wire_cap = [&](std::size_t s) {
    return rc.cap(layers[s]) * static_cast<double>(tree.segs[s].length());
  };

  // Sink pin caps land at their segment's far end.
  for (const auto& sink : tree.sinks) {
    if (sink.seg_id >= 0) cd[sink.seg_id] += rc.sink_cap();
  }

  // Cd: sinks-to-source (children are stored after parents, so reverse
  // iteration is a reverse topological order).
  for (std::size_t i = n; i-- > 0;) {
    for (int c : tree.segs[i].children) cd[i] += wire_cap(c) + cd[c];
  }

  // Total load the driver sees.
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) total += wire_cap(s);
  total += static_cast<double>(tree.sinks.size()) * rc.sink_cap();
  out.total_cap = total;

  const double driver_delay = rc.driver_res() * total;

  // Arrival times, source-to-sinks (topological order).
  for (std::size_t i = 0; i < n; ++i) {
    const auto& seg = tree.segs[i];
    const int l = layers[i];
    const double ts = rc.res(l) * seg.length() * (wire_cap(i) / 2.0 + cd[i]);
    double base;
    if (seg.parent < 0) {
      // Source via drives this root segment's entire subtree.
      const double via = rc.via_stack_res(tree.root_pin_layer, l) * (wire_cap(i) + cd[i]);
      base = driver_delay + via;
    } else {
      const int lp = layers[seg.parent];
      const double via = rc.via_stack_res(lp, l) * std::min(cd[seg.parent], cd[i]);
      base = arrival[seg.parent] + via;
    }
    arrival[i] = base + ts;
  }

  // Per-sink delays (sink via drives only the pin cap).
  for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
    const auto& sink = tree.sinks[k];
    if (sink.seg_id < 0) {
      sink_delay[k] = driver_delay;
    } else {
      const double via = rc.via_stack_res(layers[sink.seg_id], sink.pin_layer) * rc.sink_cap();
      sink_delay[k] = arrival[sink.seg_id] + via;
    }
    if (sink_delay[k] > out.max_sink_delay || out.critical_sink < 0) {
      out.max_sink_delay = sink_delay[k];
      out.critical_sink = static_cast<int>(k);
    }
  }
  if (tree.sinks.empty()) out.max_sink_delay = driver_delay;
  return out;
}

NetTiming compute_timing(const route::SegTree& tree, const std::vector<int>& layers,
                         const RcTable& rc) {
  const std::size_t n = tree.segs.size();
  NetTiming t;
  t.downstream_cap.resize(n);
  t.arrival.resize(n);
  t.sink_delay.resize(tree.sinks.size());
  const ElmoreSummary sum =
      elmore_delays(tree, layers, rc, t.downstream_cap, t.arrival, t.sink_delay);
  t.total_cap = sum.total_cap;
  t.max_sink_delay = sum.max_sink_delay;
  t.critical_sink = sum.critical_sink;

  // Mark the critical path.
  t.on_critical_path.assign(n, false);
  if (t.critical_sink >= 0 && tree.sinks[t.critical_sink].seg_id >= 0) {
    for (int s = tree.sinks[t.critical_sink].seg_id; s >= 0; s = tree.segs[s].parent) {
      t.on_critical_path[s] = true;
    }
  }

  // Per-segment criticality: worst downstream sink delay, normalized.
  std::vector<double>& worst_through = t.criticality;
  worst_through.assign(n, 0.0);
  for (std::size_t k = 0; k < tree.sinks.size(); ++k) {
    const int s = tree.sinks[k].seg_id;
    if (s >= 0) worst_through[s] = std::max(worst_through[s], t.sink_delay[k]);
  }
  for (std::size_t i = n; i-- > 0;) {
    for (int c : tree.segs[i].children) {
      worst_through[i] = std::max(worst_through[i], worst_through[c]);
    }
  }
  if (t.max_sink_delay > 0.0) {
    for (std::size_t i = 0; i < n; ++i) t.criticality[i] = worst_through[i] / t.max_sink_delay;
  } else {
    std::fill(t.criticality.begin(), t.criticality.end(), 0.0);
  }
  return t;
}

double critical_delay(const route::SegTree& tree, const std::vector<int>& layers,
                      const RcTable& rc) {
  thread_local std::vector<double> downstream_cap, arrival, sink_delay;
  downstream_cap.resize(std::max(downstream_cap.size(), tree.segs.size()));
  arrival.resize(downstream_cap.size());
  sink_delay.resize(std::max(sink_delay.size(), tree.sinks.size()));
  return elmore_delays(tree, layers, rc, downstream_cap, arrival, sink_delay).max_sink_delay;
}

}  // namespace cpla::timing
