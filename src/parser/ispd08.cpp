#include "src/parser/ispd08.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/grid/layer_stack.hpp"
#include "src/util/logging.hpp"
#include "src/util/str.hpp"

namespace cpla::parser {

namespace {

/// Token stream that remembers the 1-based number of the line it last
/// produced, so every diagnostic can point at the offending input line.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Pulls the next non-empty line's tokens.
  bool next(std::vector<std::string>* out) {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_;
      auto toks = cpla::split_ws(line);
      if (!toks.empty()) {
        *out = std::move(toks);
        return true;
      }
    }
    return false;
  }

  /// Line of the last token set produced (0 before the first next()).
  int line() const { return line_; }
  /// Line to blame when input ends where more was expected.
  int eof_line() const { return line_ + 1; }

 private:
  std::istream& in_;
  int line_ = 0;
};

/// Strict full-token integer parse — no exceptions, no partial consumption.
bool to_int(const std::string& t, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (end == t.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (v < static_cast<long>(INT_MIN) || v > static_cast<long>(INT_MAX)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool to_double(const std::string& t, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  if (end == t.c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

Status bad_line(int line, std::string message) {
  return Status(StatusCode::kBadInput, std::move(message), line);
}

}  // namespace

Result<grid::Design> parse_ispd08(std::istream& in, const std::string& design_name) {
  LineReader reader(in);
  std::vector<std::string> toks;

  // grid X Y L
  if (!reader.next(&toks)) return bad_line(reader.eof_line(), "missing 'grid' header");
  int xsize = 0, ysize = 0, num_layers = 0;
  if (toks.size() < 4 || toks[0] != "grid" || !to_int(toks[1], &xsize) ||
      !to_int(toks[2], &ysize) || !to_int(toks[3], &num_layers)) {
    return bad_line(reader.line(), "malformed 'grid X Y L' header");
  }
  if (xsize < 2 || ysize < 2 || num_layers < 2) {
    return bad_line(reader.line(), str_format("degenerate grid %dx%dx%d", xsize, ysize,
                                              num_layers));
  }
  if (static_cast<long long>(xsize) * ysize > 100'000'000LL || num_layers > 256) {
    return bad_line(reader.line(), str_format("implausible grid %dx%dx%d", xsize, ysize,
                                              num_layers));
  }

  // A per-layer header line: its two keywords (checked, since the lines'
  // order alone decides which capacities are vertical), then exactly one
  // integer per layer.
  auto read_layer_vals = [&](const char* what) -> Result<std::vector<int>> {
    if (!reader.next(&toks)) {
      return bad_line(reader.eof_line(), str_format("missing '%s' line", what));
    }
    const std::vector<std::string> keywords = cpla::split_ws(what);
    if (toks.size() < keywords.size() ||
        !std::equal(keywords.begin(), keywords.end(), toks.begin())) {
      return bad_line(reader.line(), str_format("expected a '%s' line", what));
    }
    if (toks.size() - keywords.size() != static_cast<std::size_t>(num_layers)) {
      return bad_line(reader.line(), str_format("'%s' expects %d values, got %zu", what,
                                                num_layers, toks.size() - keywords.size()));
    }
    std::vector<int> vals(static_cast<std::size_t>(num_layers), 0);
    for (int l = 0; l < num_layers; ++l) {
      const std::string& t = toks[keywords.size() + static_cast<std::size_t>(l)];
      if (!to_int(t, &vals[l])) {
        return bad_line(reader.line(), str_format("bad value '%s' in '%s'", t.c_str(), what));
      }
      if (vals[l] < 0) {
        return bad_line(reader.line(), str_format("negative value %d in '%s'", vals[l], what));
      }
    }
    return vals;
  };

  auto vcap = read_layer_vals("vertical capacity");
  if (!vcap.is_ok()) return vcap.status();
  auto hcap = read_layer_vals("horizontal capacity");
  if (!hcap.is_ok()) return hcap.status();
  auto min_width = read_layer_vals("minimum width");
  if (!min_width.is_ok()) return min_width.status();
  auto min_spacing = read_layer_vals("minimum spacing");
  if (!min_spacing.is_ok()) return min_spacing.status();
  auto via_spacing = read_layer_vals("via spacing");
  if (!via_spacing.is_ok()) return via_spacing.status();

  // llx lly tile_w tile_h
  if (!reader.next(&toks)) return bad_line(reader.eof_line(), "missing origin/tile line");
  double llx = 0, lly = 0, tile_w = 0, tile_h = 0;
  if (toks.size() < 4 || !to_double(toks[0], &llx) || !to_double(toks[1], &lly) ||
      !to_double(toks[2], &tile_w) || !to_double(toks[3], &tile_h)) {
    return bad_line(reader.line(), "malformed origin/tile line");
  }
  if (tile_w <= 0.0 || tile_h <= 0.0) {
    return bad_line(reader.line(), str_format("non-positive tile size %g x %g", tile_w, tile_h));
  }
  if (!std::isfinite(tile_w * xsize) || !std::isfinite(tile_h * ysize)) {
    return bad_line(reader.line(), str_format("implausible tile size %g x %g", tile_w, tile_h));
  }

  // Direction per layer from which capacity is nonzero; RC profile from the
  // canonical stack (the file format carries no electrical data).
  const std::vector<int>& vc = vcap.value();
  const std::vector<int>& hc = hcap.value();
  const std::vector<int>& mw = min_width.value();
  const std::vector<int>& ms = min_spacing.value();
  const std::vector<int>& vs = via_spacing.value();
  std::vector<grid::Layer> layers = grid::make_layer_stack(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    layers[l].horizontal = hc[l] >= vc[l];
  }
  grid::GeomParams geom = grid::default_geom();
  geom.tile_width = tile_w;
  geom.wire_width = std::max(1, mw[0]);
  geom.wire_spacing = std::max(0, ms[0]);
  geom.via_spacing = std::max(0, vs[0]);

  grid::GridGraph g(xsize, ysize, layers, geom);
  for (int l = 0; l < num_layers; ++l) {
    const int raw = layers[l].horizontal ? hc[l] : vc[l];
    const long long pitch = std::max(1LL, static_cast<long long>(mw[l]) + ms[l]);
    g.fill_layer_capacity(l, static_cast<int>(raw / pitch));  // tracks per edge
  }

  grid::Design design(design_name, std::move(g));

  // num net N
  if (!reader.next(&toks)) return bad_line(reader.eof_line(), "missing 'num net' line");
  int num_nets = 0;
  if (toks.size() < 3 || toks[0] != "num" || toks[1] != "net" || !to_int(toks[2], &num_nets) ||
      num_nets < 0) {
    return bad_line(reader.line(), "malformed 'num net N' line");
  }

  // Maps an absolute pin coordinate to its g-cell; a point exactly on the
  // far boundary belongs to the last cell, anything further out is an
  // input error (the old behavior of silently clamping hid corrupt files).
  // The range test runs in floating point: a far-out (or non-finite)
  // coordinate must be rejected before anything converts it to int.
  auto to_cell = [&](double p, double origin, double tile, int size, int* cell) {
    const double offset = p - origin;
    const double t = offset / tile;
    if (!(offset >= 0.0) || !(t < size + 1.0)) return false;
    const int c = static_cast<int>(t);
    if (c == size && offset > size * tile) return false;
    *cell = std::min(c, size - 1);
    return true;
  };

  // The declared count is untrusted: reserve no more than a small bound
  // up front, so a one-line header cannot allocate gigabytes.
  design.nets.reserve(static_cast<std::size_t>(std::min(num_nets, 1 << 16)));
  for (int n = 0; n < num_nets; ++n) {
    if (!reader.next(&toks) || toks.size() < 3) {
      return bad_line(reader.eof_line(), str_format("truncated net header (net %d of %d)", n,
                                                    num_nets));
    }
    grid::Net net;
    net.name = toks[0];
    net.id = n;
    int num_pins = 0;
    if (!to_int(toks[2], &num_pins) || num_pins < 1) {
      return bad_line(reader.line(), str_format("malformed pin count for net %s",
                                                net.name.c_str()));
    }
    if (num_pins > 1'000'000) {
      return bad_line(reader.line(), str_format("implausible pin count %d for net %s", num_pins,
                                                net.name.c_str()));
    }
    net.pins.reserve(static_cast<std::size_t>(std::min(num_pins, 1 << 10)));
    for (int k = 0; k < num_pins; ++k) {
      if (!reader.next(&toks)) {
        return bad_line(reader.eof_line(), str_format("truncated pin list for net %s (pin %d of %d)",
                                                      net.name.c_str(), k, num_pins));
      }
      double px = 0, py = 0;
      int file_layer = 0;
      if (toks.size() < 3 || !to_double(toks[0], &px) || !to_double(toks[1], &py) ||
          !to_int(toks[2], &file_layer)) {
        return bad_line(reader.line(), str_format("malformed pin for net %s", net.name.c_str()));
      }
      grid::Pin pin;
      if (!to_cell(px, llx, tile_w, xsize, &pin.x) || !to_cell(py, lly, tile_h, ysize, &pin.y)) {
        return bad_line(reader.line(), str_format("pin (%g, %g) outside the %dx%d grid", px, py,
                                                  xsize, ysize));
      }
      if (file_layer < 1 || file_layer > num_layers) {
        return bad_line(reader.line(), str_format("pin layer %d outside [1, %d]", file_layer,
                                                  num_layers));
      }
      pin.layer = file_layer - 1;
      net.pins.push_back(pin);
    }
    design.nets.push_back(std::move(net));
  }

  // Optional capacity adjustments.
  if (reader.next(&toks)) {
    int num_adjust = 0;
    if (!to_int(toks[0], &num_adjust) || num_adjust < 0) {
      return bad_line(reader.line(), "malformed adjustment count");
    }
    for (int a = 0; a < num_adjust; ++a) {
      if (!reader.next(&toks) || toks.size() < 7) {
        return bad_line(reader.eof_line(), str_format("truncated adjustment %d of %d", a,
                                                      num_adjust));
      }
      int x1, y1, l1, x2, y2, l2, cap;
      if (!to_int(toks[0], &x1) || !to_int(toks[1], &y1) || !to_int(toks[2], &l1) ||
          !to_int(toks[3], &x2) || !to_int(toks[4], &y2) || !to_int(toks[5], &l2) ||
          !to_int(toks[6], &cap)) {
        return bad_line(reader.line(), str_format("malformed adjustment %d", a));
      }
      l1 -= 1;
      l2 -= 1;
      if (cap < 0) {
        return bad_line(reader.line(), str_format("negative capacity %d in adjustment %d", cap, a));
      }
      if (l1 != l2 || l1 < 0 || l1 >= num_layers) continue;
      if (x1 < 0 || x1 >= xsize || x2 < 0 || x2 >= xsize || y1 < 0 || y1 >= ysize || y2 < 0 ||
          y2 >= ysize) {
        return bad_line(reader.line(),
                        str_format("adjustment %d edge (%d,%d)-(%d,%d) outside the %dx%d grid", a,
                                   x1, y1, x2, y2, xsize, ysize));
      }
      auto& gg = design.grid;
      if (y1 == y2 && std::abs(x1 - x2) == 1 && gg.is_horizontal(l1)) {
        gg.set_edge_capacity(l1, gg.h_edge_id(std::min(x1, x2), y1), cap);
      } else if (x1 == x2 && std::abs(y1 - y2) == 1 && !gg.is_horizontal(l1)) {
        gg.set_edge_capacity(l1, gg.v_edge_id(x1, std::min(y1, y2)), cap);
      }
    }
  }

  return design;
}

Result<grid::Design> parse_ispd08_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kBadInput, str_format("cannot open %s", path.c_str()));
  }
  // Design name = basename without extension.
  std::string name = path;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_ispd08(in, name);
}

std::optional<grid::Design> read_ispd08(std::istream& in, const std::string& design_name) {
  Result<grid::Design> parsed = parse_ispd08(in, design_name);
  if (!parsed.is_ok()) {
    LOG_ERROR("ispd08: %s", parsed.status().to_string().c_str());
    return std::nullopt;
  }
  return std::move(parsed.take());
}

std::optional<grid::Design> read_ispd08_file(const std::string& path) {
  Result<grid::Design> parsed = parse_ispd08_file(path);
  if (!parsed.is_ok()) {
    LOG_ERROR("ispd08: %s", parsed.status().to_string().c_str());
    return std::nullopt;
  }
  return std::move(parsed.take());
}

void write_ispd08(const grid::Design& design, std::ostream& out) {
  const auto& g = design.grid;
  const grid::GeomParams& geom = g.geom();
  const int nl = g.num_layers();
  // Full precision: the tile size and pin coordinates re-parse exactly.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "grid " << g.xsize() << " " << g.ysize() << " " << nl << "\n";

  // The reader divides a header capacity by the layer pitch (minimum width
  // + spacing) and infers each layer's direction from which header value is
  // larger, so the header states pitch * default tracks per layer. The
  // default is edge 0's capacity, except where the header could not carry
  // it: a vertical layer needs a positive value to stay vertical, and the
  // product must fit an int. Those layers fall back to the smallest stated
  // value that works. Edges that deviate from the default become
  // adjustment records, which the reader applies in tracks.
  const long long pitch =
      std::max(1LL, std::llround(geom.wire_width) + std::llround(geom.wire_spacing));
  std::vector<long long> header(static_cast<std::size_t>(nl), 0);
  std::vector<int> def(static_cast<std::size_t>(nl), 0);
  for (int l = 0; l < nl; ++l) {
    long long raw = pitch * g.edge_capacity(l, 0);
    if (raw > INT_MAX) raw = pitch <= INT_MAX ? pitch : 0;
    if (!g.is_horizontal(l) && raw == 0) raw = 1;
    header[l] = raw;
    def[l] = static_cast<int>(raw / pitch);
  }

  out << "vertical capacity";
  for (int l = 0; l < nl; ++l) out << " " << (g.is_horizontal(l) ? 0 : header[l]);
  out << "\nhorizontal capacity";
  for (int l = 0; l < nl; ++l) out << " " << (g.is_horizontal(l) ? header[l] : 0);
  out << "\nminimum width";
  for (int l = 0; l < nl; ++l) out << " " << geom.wire_width;
  out << "\nminimum spacing";
  for (int l = 0; l < nl; ++l) out << " " << geom.wire_spacing;
  out << "\nvia spacing";
  for (int l = 0; l < nl; ++l) out << " " << geom.via_spacing;
  const double tile = geom.tile_width;
  out << "\n0 0 " << tile << " " << tile << "\n\n";

  out << "num net " << design.nets.size() << "\n";
  for (const auto& net : design.nets) {
    out << net.name << " " << net.id << " " << net.pins.size() << " 1\n";
    for (const auto& pin : net.pins) {
      out << (pin.x + 0.5) * tile << " " << (pin.y + 0.5) * tile << " " << pin.layer + 1 << "\n";
    }
  }

  // Adjustments for edges that deviate from the layer default.
  struct Adj {
    int x1, y1, x2, y2, l, cap;
  };
  std::vector<Adj> adjustments;
  for (int l = 0; l < nl; ++l) {
    if (g.is_horizontal(l)) {
      for (int y = 0; y < g.ysize(); ++y) {
        for (int x = 0; x < g.xsize() - 1; ++x) {
          const int cap = g.edge_capacity(l, g.h_edge_id(x, y));
          if (cap != def[l]) adjustments.push_back({x, y, x + 1, y, l, cap});
        }
      }
    } else {
      for (int x = 0; x < g.xsize(); ++x) {
        for (int y = 0; y < g.ysize() - 1; ++y) {
          const int cap = g.edge_capacity(l, g.v_edge_id(x, y));
          if (cap != def[l]) adjustments.push_back({x, y, x, y + 1, l, cap});
        }
      }
    }
  }
  out << adjustments.size() << "\n";
  for (const auto& a : adjustments) {
    out << a.x1 << " " << a.y1 << " " << a.l + 1 << "   " << a.x2 << " " << a.y2 << " "
        << a.l + 1 << "   " << a.cap << "\n";
  }
}

bool write_ispd08_file(const grid::Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    LOG_ERROR("ispd08: cannot write %s", path.c_str());
    return false;
  }
  write_ispd08(design, out);
  return true;
}

}  // namespace cpla::parser
