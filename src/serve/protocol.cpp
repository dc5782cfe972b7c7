#include "src/serve/protocol.hpp"

#include <sstream>

#include "src/eco/reroute.hpp"

namespace cpla::serve {

bool is_edit(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCapacity:
    case RequestKind::kRelease:
    case RequestKind::kDemote:
    case RequestKind::kReroute:
    case RequestKind::kAdd:
    case RequestKind::kRemove:
      return true;
    case RequestKind::kEmpty:
    case RequestKind::kResolve:
    case RequestKind::kSync:
    case RequestKind::kQuery:
    case RequestKind::kQuit:
      return false;
  }
  return false;
}

namespace {

/// Reads the next token unless the line is spent or the rest is a '#'
/// comment (which then ends the line for every later read too).
bool next_token(std::istringstream& in, std::string* tok) {
  if (!(in >> *tok)) return false;
  if ((*tok)[0] != '#') return true;
  in.setstate(std::ios::failbit);
  return false;
}

}  // namespace

Result<Request> parse_request(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::string op;
  Request req;
  if (!next_token(in, &op)) return req;  // kEmpty

  auto fail = [](const char* why) { return Status(StatusCode::kBadInput, why); };
  // Every field is read as a whole token: a line with anything after its
  // last field (a typo, a unit suffix, a half-read number) is rejected
  // rather than silently truncated.
  auto done = [&]() -> Result<Request> {
    std::string extra;
    if (next_token(in, &extra)) return fail("unexpected trailing token");
    return req;
  };

  if (op == "capacity") {
    req.kind = RequestKind::kCapacity;
    if (!(in >> req.layer >> req.x >> req.y >> req.cap)) {
      return fail("expected: capacity LAYER X Y CAP");
    }
    return done();
  }
  if (op == "release" || op == "demote") {
    req.kind = op == "release" ? RequestKind::kRelease : RequestKind::kDemote;
    if (!(in >> req.net)) return fail("expected a net id");
    return done();
  }
  if (op == "reroute") {
    req.kind = RequestKind::kReroute;
    if (!(in >> req.net)) return fail("expected a net id");
    return done();
  }
  if (op == "add") {
    req.kind = RequestKind::kAdd;
    if (!(in >> req.x >> req.y >> req.x2 >> req.y2)) return fail("expected: add X1 Y1 X2 Y2");
    return done();
  }
  if (op == "remove") {
    req.kind = RequestKind::kRemove;
    if (!(in >> req.net)) return fail("expected a net id");
    return done();
  }
  if (op == "resolve") {
    req.kind = RequestKind::kResolve;
    return done();
  }
  if (op == "sync") {
    req.kind = RequestKind::kSync;
    return done();
  }
  if (op == "query") {
    req.kind = RequestKind::kQuery;
    if (!(in >> req.query)) return fail("expected: query hash|seq|metrics|stats|net");
    if (req.query == "net") {
      if (!(in >> req.net)) return fail("expected: query net NET");
    } else if (req.query != "hash" && req.query != "seq" && req.query != "metrics" &&
               req.query != "stats") {
      return fail("expected: query hash|seq|metrics|stats|net");
    }
    return done();
  }
  if (op == "quit") {
    req.kind = RequestKind::kQuit;
    return done();
  }
  return fail("unknown op");
}

Result<eco::Delta> materialize(const Request& request, const assign::AssignState& state) {
  switch (request.kind) {
    case RequestKind::kCapacity:
      return eco::Delta::capacity_adjusted(request.layer, request.x, request.y, request.cap);
    case RequestKind::kRelease:
      return eco::Delta::criticality_changed(request.net, true);
    case RequestKind::kDemote:
      return eco::Delta::criticality_changed(request.net, false);
    case RequestKind::kReroute: {
      CPLA_CHECK(request.net >= 0 && request.net < state.num_nets(),
                 Status(StatusCode::kBadInput, "net id out of range"));
      Result<route::SegTree> flipped = eco::alternate_route(state.tree(request.net));
      CPLA_CHECK(flipped.is_ok(), Status(StatusCode::kBadInput, "net is not a two-segment L"));
      return eco::Delta::net_rerouted(request.net, flipped.take());
    }
    case RequestKind::kAdd:
      return eco::Delta::net_added(
          eco::make_two_pin_tree({request.x, request.y}, {request.x2, request.y2}));
    case RequestKind::kRemove:
      return eco::Delta::net_removed(request.net);
    case RequestKind::kEmpty:
    case RequestKind::kResolve:
    case RequestKind::kSync:
    case RequestKind::kQuery:
    case RequestKind::kQuit:
      break;
  }
  return Status(StatusCode::kBadInput, "request is not an edit");
}

}  // namespace cpla::serve
