#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {
namespace {

// The calling thread's open spans, innermost last.
thread_local std::vector<int> open_spans;

int thread_tag() {
  return static_cast<int>(std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

int Tracer::begin(const std::string& name, long request, int parent, bool concurrent) {
  if (!enabled_) return -1;
  if (parent < 0 && !open_spans.empty()) parent = open_spans.back();
  Span span;
  span.name = name;
  span.start_ms = std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  span.parent = parent;
  span.request = request;
  span.thread = thread_tag();
  span.concurrent = concurrent;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  const double now = std::chrono::duration<double, std::milli>(Clock::now() - epoch_).count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = now;
  }
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

double Tracer::duration_ms(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return 0.0;
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_ms - s.start_ms;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<int> Tracer::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.id);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_times(int root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  if (root < 0 || root >= static_cast<int>(spans_.size())) return out;
  std::vector<std::vector<int>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && !s.concurrent) children[static_cast<std::size_t>(s.parent)].push_back(s.id);
  }
  std::map<std::string, double> self;
  std::vector<int> todo = {root};
  while (!todo.empty()) {
    const Span& s = spans_[static_cast<std::size_t>(todo.back())];
    todo.pop_back();
    // Union of the serial children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[static_cast<std::size_t>(s.id)]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      iv.emplace_back(std::max(k.start_ms, s.start_ms), std::min(k.end_ms, s.end_ms));
      todo.push_back(c);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[s.name] += (s.end_ms - s.start_ms) - covered;
  }
  return {self.begin(), self.end()};
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%d,\"name\":\"%s\",\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,"
                 "\"request\":%ld,\"thread\":%d,\"concurrent\":%s}%s\n",
                 s.id, cpla::obs::json_escape(s.name).c_str(), s.start_ms, s.end_ms, s.parent,
                 s.request, s.thread, s.concurrent ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
