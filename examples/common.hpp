#pragma once

// Boilerplate shared by the example binaries: flag parsing, the design
// banner, and the Table-2 metric table every example ends with. Examples
// are documentation first — keeping the scaffolding here keeps each
// example's main() focused on the API it demonstrates.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/flow.hpp"
#include "src/grid/design.hpp"
#include "src/util/table.hpp"

namespace cpla::examples {

/// Value of `--flag <value>` in argv, or nullptr when absent.
inline const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Parses all of `text` as a finite number in [lo, hi], a whole one when
/// `integral`. Leading blanks, trailing characters, nan, inf and
/// out-of-range values are rejected.
inline bool parse_number(const char* text, double lo, double hi, bool integral, double* out) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v) || v < lo || v > hi) return false;
  if (integral && std::floor(v) != v) return false;
  *out = v;
  return true;
}

/// Value of the numeric flag `--flag <value>`, or `fallback` when the flag
/// is absent. A value parse_number() rejects prints the problem and `usage`
/// to stderr and exits with status 2 — before the caller has prepared
/// anything, as long as it reads its flags first.
inline double number_arg(int argc, char** argv, const char* flag, double fallback, double lo,
                         double hi, bool integral, const char* usage) {
  const char* text = arg_value(argc, argv, flag);
  if (text == nullptr) return fallback;
  double v = 0.0;
  if (!parse_number(text, lo, hi, integral, &v)) {
    std::fprintf(stderr, "error: %s expects %s in [%.15g, %.15g], got '%s'\n%s", flag,
                 integral ? "a whole number" : "a finite number", lo, hi, text, usage);
    std::exit(2);
  }
  return v;
}

inline int int_arg(int argc, char** argv, const char* flag, int fallback, int lo, int hi,
                   const char* usage) {
  return static_cast<int>(number_arg(argc, argv, flag, fallback, lo, hi, true, usage));
}

inline void print_design_summary(const grid::Design& design) {
  std::printf("benchmark %s: %dx%d grid, %d layers, %zu nets\n", design.name.c_str(),
              design.grid.xsize(), design.grid.ysize(), design.grid.num_layers(),
              design.nets.size());
}

/// One row per flow stage, Table-2 columns. Usage:
///   MetricTable table;
///   table.add("initial", before, 0.0);
///   table.add("CPLA-SDP", after, seconds);
///   table.print();
class MetricTable {
 public:
  MetricTable() : table_({"flow", "Avg(Tcp)", "Max(Tcp)", "OV#", "via#", "wire_ov", "CPU(s)"}) {}

  void add(const std::string& name, const core::LaMetrics& m, double seconds) {
    table_.add_row({name, fmt_num(m.avg_tcp, 1), fmt_num(m.max_tcp, 1),
                    std::to_string(m.via_overflow), std::to_string(m.via_count),
                    std::to_string(m.wire_overflow), fmt_num(seconds, 2)});
  }

  void print() { table_.print(stdout); }

 private:
  Table table_;
};

}  // namespace cpla::examples
