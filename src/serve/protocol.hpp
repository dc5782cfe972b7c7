#pragma once

// The ECO service's line protocol: the existing `--eco` edit-script
// grammar plus server verbs, one request per line.
//
//   capacity L X Y CAP | release NET | demote NET | reroute NET |
//   add X1 Y1 X2 Y2 | remove NET        edits (each submits one delta)
//   resolve                             apply + re-optimize barrier
//   sync                                durability barrier only
//   query hash|seq|metrics|stats        snapshot-isolated reads
//   query net NET                       one net's layer vector
//   quit                                close the connection
//
// Blank lines and '#' comments are ignored. Replies are single lines:
// "ok[ payload]" on success, "err <code>: <message>" on failure. The
// parser and the delta materializer live here so the CLI's script mode,
// the socket server, and the chaos harness all speak byte-identical
// grammar.

#include <string>
#include <string_view>

#include "src/assign/state.hpp"
#include "src/eco/delta.hpp"
#include "src/util/status.hpp"

namespace cpla::serve {

enum class RequestKind {
  kEmpty,  // blank line or comment: no-op
  kCapacity,
  kRelease,
  kDemote,
  kReroute,
  kAdd,
  kRemove,
  kResolve,
  kSync,
  kQuery,
  kQuit,
};

struct Request {
  RequestKind kind = RequestKind::kEmpty;
  int net = -1;              // release/demote/reroute/remove/query-net target
  int layer = -1;            // capacity payload
  int x = 0, y = 0;          // capacity edge origin / add first pin
  int cap = 0;               // capacity payload
  int x2 = 0, y2 = 0;        // add second pin
  std::string query;         // "hash" | "seq" | "metrics" | "stats" | "net"
};

/// True for the six kinds that submit a delta.
bool is_edit(RequestKind kind);

/// Parses one protocol line. kBadInput carries a description of the
/// malformed token; comments/blank lines come back as kEmpty requests.
/// Fields are whole tokens, and nothing but a '#' comment may follow the
/// last one: `release 3 junk` and `resolve 5` are errors, not `release 3`
/// and a bare resolve.
Result<Request> parse_request(std::string_view line);

/// Builds the delta for an edit request against the current state (a
/// reroute flips the target net's two-segment L through its other corner,
/// exactly like the CLI script mode always has).
Result<eco::Delta> materialize(const Request& request, const assign::AssignState& state);

}  // namespace cpla::serve
