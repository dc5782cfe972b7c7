// Line-protocol units: request parsing (the shared `--eco` grammar plus
// server verbs), delta materialization, and the in-process handle_line
// dispatcher the socket server and the chaos harness both ride on.

#include <gtest/gtest.h>

#include <string>

#include "src/serve/protocol.hpp"
#include "src/serve/socket_server.hpp"
#include "tests/serve/serve_test_util.hpp"

namespace cpla::serve {
namespace {

Request parse_ok(const std::string& line) {
  Result<Request> r = parse_request(line);
  EXPECT_TRUE(r.is_ok()) << line << ": " << r.status().to_string();
  return r.is_ok() ? r.value() : Request{};
}

TEST(ProtocolTest, ParsesEveryVerb) {
  const Request cap = parse_ok("capacity 2 3 4 9");
  EXPECT_EQ(cap.kind, RequestKind::kCapacity);
  EXPECT_EQ(cap.layer, 2);
  EXPECT_EQ(cap.x, 3);
  EXPECT_EQ(cap.y, 4);
  EXPECT_EQ(cap.cap, 9);

  EXPECT_EQ(parse_ok("release 5").kind, RequestKind::kRelease);
  EXPECT_EQ(parse_ok("demote 5").kind, RequestKind::kDemote);
  EXPECT_EQ(parse_ok("reroute 7").net, 7);
  const Request add = parse_ok("add 1 2 3 4");
  EXPECT_EQ(add.kind, RequestKind::kAdd);
  EXPECT_EQ(add.x2, 3);
  EXPECT_EQ(add.y2, 4);
  EXPECT_EQ(parse_ok("remove 9").kind, RequestKind::kRemove);

  EXPECT_EQ(parse_ok("resolve").kind, RequestKind::kResolve);
  EXPECT_EQ(parse_ok("sync").kind, RequestKind::kSync);
  EXPECT_EQ(parse_ok("query hash").query, "hash");
  EXPECT_EQ(parse_ok("query net 3").net, 3);
  EXPECT_EQ(parse_ok("quit").kind, RequestKind::kQuit);

  EXPECT_EQ(parse_ok("").kind, RequestKind::kEmpty);
  EXPECT_EQ(parse_ok("   ").kind, RequestKind::kEmpty);
  EXPECT_EQ(parse_ok("# a comment").kind, RequestKind::kEmpty);
}

TEST(ProtocolTest, MalformedLinesFailWithBadInput) {
  for (const char* bad : {"capacity 1 2", "release", "reroute x", "add 1 2 3",
                          "resolve -5", "query", "query bogus", "query net", "frobnicate 1"}) {
    Result<Request> r = parse_request(bad);
    ASSERT_FALSE(r.is_ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kBadInput) << bad;
  }
}

TEST(ProtocolTest, TrailingTokensAndBadDeadlinesAreRejected) {
  // `resolve` takes no argument: a budget token is an error, not a
  // deadline.
  for (const char* bad : {"resolve 5", "resolve 250.5", "resolve 0", "resolve abc",
                          "resolve 5ms", "resolve nan", "resolve inf", "release 3 junk",
                          "demote 3x", "reroute 2 2", "remove 1.5", "capacity 1 2 3 4 5",
                          "add 1 2 3 4 x", "sync now", "quit 1", "query hash x",
                          "query net 3 4"}) {
    Result<Request> r = parse_request(bad);
    ASSERT_FALSE(r.is_ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kBadInput) << bad;
  }
  // A trailing '#' comment is not a token.
  EXPECT_EQ(parse_ok("resolve   # no budget").kind, RequestKind::kResolve);
  EXPECT_EQ(parse_ok("reroute 17          # flip net 17").net, 17);
}

TEST(ProtocolTest, MaterializeBuildsTheSameDeltasAsTheCliGrammar) {
  core::Prepared bench = eco::make_bench(601, 12, 50);

  Result<eco::Delta> cap = materialize(parse_ok("capacity 0 2 3 7"), *bench.state);
  ASSERT_TRUE(cap.is_ok());
  EXPECT_EQ(cap.value().kind, eco::DeltaKind::kCapacityAdjusted);
  EXPECT_EQ(cap.value().cap, 7);

  Result<eco::Delta> rel = materialize(parse_ok("release 4"), *bench.state);
  ASSERT_TRUE(rel.is_ok());
  EXPECT_TRUE(rel.value().released);
  Result<eco::Delta> dem = materialize(parse_ok("demote 4"), *bench.state);
  ASSERT_TRUE(dem.is_ok());
  EXPECT_FALSE(dem.value().released);

  Result<eco::Delta> add = materialize(parse_ok("add 1 1 5 6"), *bench.state);
  ASSERT_TRUE(add.is_ok());
  EXPECT_EQ(add.value().kind, eco::DeltaKind::kNetAdded);
  EXPECT_EQ(add.value().tree.segs.size(), 2u);

  // Reroute of an out-of-range net is a materialization error.
  EXPECT_FALSE(materialize(parse_ok("reroute 100000"), *bench.state).is_ok());
  // Non-edit kinds cannot materialize.
  EXPECT_FALSE(materialize(parse_ok("sync"), *bench.state).is_ok());
}

TEST(ProtocolTest, HandleLineSpeaksTheReplyGrammar) {
  core::Prepared bench = eco::make_bench(602, 12, 50);
  ServeOptions opt;
  opt.eco.critical_ratio = 0.03;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  const int session = service.open_session().value();

  EXPECT_EQ(handle_line(&service, session, "# comment").text, "");
  EXPECT_EQ(handle_line(&service, session, "capacity 0 2 3 9").text, "ok 1");
  EXPECT_EQ(handle_line(&service, session, "sync").text, "ok");

  const LineReply resolve = handle_line(&service, session, "resolve");
  EXPECT_EQ(resolve.text.rfind("ok hash=", 0), 0u) << resolve.text;
  EXPECT_NE(resolve.text.find(" seq="), std::string::npos);

  const LineReply hash = handle_line(&service, session, "query hash");
  EXPECT_EQ(hash.text.rfind("ok ", 0), 0u);
  EXPECT_EQ(hash.text.size(), 3u + 16u);  // "ok " + 16 hex digits
  // The query answer matches the resolve reply.
  EXPECT_NE(resolve.text.find(hash.text.substr(3)), std::string::npos);

  const LineReply stats = handle_line(&service, session, "query stats");
  EXPECT_NE(stats.text.find("submitted=1"), std::string::npos) << stats.text;
  EXPECT_NE(stats.text.find("read_only=0"), std::string::npos);

  const LineReply net = handle_line(&service, session, "query net 0");
  EXPECT_EQ(net.text.rfind("ok", 0), 0u);
  EXPECT_EQ(handle_line(&service, session, "query net 99999").text.rfind("err bad-input", 0),
            0u);

  const LineReply bad = handle_line(&service, session, "capacity nope");
  EXPECT_EQ(bad.text.rfind("err bad-input: ", 0), 0u);
  EXPECT_FALSE(bad.quit);

  const LineReply quit = handle_line(&service, session, "quit");
  EXPECT_EQ(quit.text, "ok bye");
  EXPECT_TRUE(quit.quit);
  service.stop();
}

}  // namespace
}  // namespace cpla::serve
