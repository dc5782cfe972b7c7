#include "src/sta/corner.hpp"

#include <cmath>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/util/check.hpp"

namespace cpla::sta {

CornerSet::CornerSet(const timing::RcTable& base, std::vector<RcCorner> corners)
    : corners_(std::move(corners)) {
  CPLA_ASSERT_MSG(!corners_.empty(), "a CornerSet needs at least one corner");
  tables_.reserve(corners_.size());
  for (const RcCorner& c : corners_) {
    timing::RcTable rc = base;
    rc.scale_resistance(c.res_scale);
    rc.scale_capacitance(c.cap_scale);
    rc.set_sink_cap(base.sink_cap() * c.cap_scale);
    rc.set_driver_res(base.driver_res() * c.driver_scale);
    tables_.push_back(std::move(rc));
  }
}

CornerSet CornerSet::single(const timing::RcTable& base) {
  return CornerSet(base, {RcCorner{}});
}

Result<std::vector<RcCorner>> parse_corners(std::istream& in) {
  std::vector<RcCorner> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank or comment-only line
    if (keyword != "corner") {
      return Status(StatusCode::kBadInput, "expected 'corner', got '" + keyword + "'", lineno);
    }
    RcCorner corner;
    if (!(fields >> corner.name >> corner.res_scale >> corner.cap_scale)) {
      return Status(StatusCode::kBadInput,
                    "corner needs <name> <res_scale> <cap_scale> "
                    "[driver_scale [required_time]]",
                    lineno);
    }
    if (fields.fail()) {
      return Status(StatusCode::kBadInput, "malformed corner scales", lineno);
    }
    // Optional fields keep their defaults when absent; a present-but-
    // malformed value is an error, not a silent default.
    double* const optional_fields[] = {&corner.driver_scale, &corner.required_time};
    std::string token;
    std::size_t opt = 0;
    while (fields >> token) {
      if (opt >= std::size(optional_fields)) {
        return Status(StatusCode::kBadInput, "trailing junk '" + token + "'", lineno);
      }
      std::size_t consumed = 0;
      double value = 0.0;
      try {
        value = std::stod(token, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != token.size() || !std::isfinite(value)) {
        return Status(StatusCode::kBadInput, "malformed number '" + token + "'", lineno);
      }
      *optional_fields[opt++] = value;
    }
    if (corner.res_scale <= 0.0 || corner.cap_scale <= 0.0 || corner.driver_scale <= 0.0) {
      return Status(StatusCode::kBadInput, "corner scales must be positive", lineno);
    }
    for (const RcCorner& seen : out) {
      if (seen.name == corner.name) {
        return Status(StatusCode::kBadInput, "duplicate corner '" + corner.name + "'", lineno);
      }
    }
    out.push_back(std::move(corner));
  }
  if (out.empty()) {
    return Status(StatusCode::kBadInput, "corner table defines no corners", lineno + 1);
  }
  return out;
}

Result<std::vector<RcCorner>> parse_corners_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kBadInput, "cannot open corners file " + path);
  }
  return parse_corners(in);
}

}  // namespace cpla::sta
