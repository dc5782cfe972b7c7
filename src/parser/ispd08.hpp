#pragma once

// Reader/writer for the ISPD'08 global-routing benchmark format [17]:
//
//   grid X Y L
//   vertical capacity   c1 .. cL
//   horizontal capacity c1 .. cL
//   minimum width       w1 .. wL
//   minimum spacing     s1 .. sL
//   via spacing         v1 .. vL
//   llx lly tile_w tile_h
//   num net N
//   <name> <id> <#pins> <minwidth>
//   px py layer          (absolute coordinates, 1-based layers)
//   ...
//   A                    (#capacity adjustments)
//   x1 y1 l1  x2 y2 l2  cap
//
// Real suite files drop straight in; the synthetic generator writes the
// same format (see src/gen).

#include <iosfwd>
#include <optional>
#include <string>

#include "src/grid/design.hpp"
#include "src/util/status.hpp"

namespace cpla::parser {

/// Parses a benchmark. Malformed input — truncated blocks, non-numeric
/// fields, negative capacities, pins outside the grid — yields a
/// StatusCode::kBadInput Status carrying the 1-based line number of the
/// offending line; no input can crash the parser.
Result<grid::Design> parse_ispd08(std::istream& in, const std::string& design_name);
Result<grid::Design> parse_ispd08_file(const std::string& path);

/// Legacy convenience wrappers: log the diagnostic and collapse the Status
/// to std::nullopt.
std::optional<grid::Design> read_ispd08(std::istream& in, const std::string& design_name);
std::optional<grid::Design> read_ispd08_file(const std::string& path);

/// Writes a design back out in ISPD'08 syntax (capacity adjustments are not
/// reconstructed; per-edge deviations from the layer default are emitted as
/// adjustment records). Re-parsing the output yields the same grid, layer
/// directions, edge capacities, via-model geometry and pins.
void write_ispd08(const grid::Design& design, std::ostream& out);
bool write_ispd08_file(const grid::Design& design, const std::string& path);

}  // namespace cpla::parser
