// Concurrency suite (tsan label): 64 sessions hammering one service with
// mixed edits, resolves, syncs, and snapshot reads — no deadlock, no
// torn state, and the journal still replays to the exact final bits. The
// socket cases drive real AF_UNIX connections through the socket server:
// parallel clients, the session limit, the request-line cap, and the
// reaping of finished connections.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/socket_server.hpp"
#include "tests/serve/serve_test_util.hpp"

namespace cpla::serve {
namespace {

TEST(ConcurrencyTest, SixtyFourSessionsKeepTheServiceConsistent) {
  constexpr int kSessions = 64;
  constexpr int kEditsPerSession = 6;
  TempDir dir;
  core::Prepared bench = eco::make_bench(701, 12, 60);

  // Pre-compute every delta while the state is quiescent: client threads
  // must never read the live grid/state (that is the worker's job).
  const auto& g = bench.design->grid;
  int h_layer = 0;
  while (!g.is_horizontal(h_layer)) ++h_layer;
  std::vector<std::vector<eco::Delta>> scripts(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    for (int i = 0; i < kEditsPerSession; ++i) {
      const int x = (s + i) % (g.xsize() - 1);
      const int y = (s * 3 + i) % g.ysize();
      const int cap = g.edge_capacity(h_layer, g.h_edge_id(x, y));
      scripts[s].push_back(eco::Delta::capacity_adjusted(h_layer, x, y, cap + 1 + (s + i) % 3));
    }
    // A criticality toggle per session exercises the ordered released-set.
    scripts[s].push_back(
        eco::Delta::criticality_changed((s * 7) % bench.state->num_nets(), s % 2 == 0));
  }

  ServeOptions opt = durable_options(dir);
  opt.max_sessions = kSessions;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());

  std::atomic<int> resolves_ok{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      const Result<int> session = service.open_session();
      if (!session.is_ok()) {
        failures.fetch_add(1);
        return;
      }
      for (const eco::Delta& d : scripts[s]) {
        if (!service.submit(session.value(), d).is_ok()) failures.fetch_add(1);
        if (service.snapshot() == nullptr) failures.fetch_add(1);  // reads never block
      }
      if (s % 8 == 0) {
        if (service.resolve(session.value()).status.is_ok()) resolves_ok.fetch_add(1);
      } else {
        if (!service.sync(session.value()).is_ok()) failures.fetch_add(1);
      }
      service.close_session(session.value());
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(resolves_ok.load(), kSessions / 8);
  EXPECT_FALSE(service.read_only());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSessions * (kEditsPerSession + 1)));
  EXPECT_EQ(stats.shed, 0u);
  const std::uint64_t final_hash = service.snapshot()->hash;
  service.stop();

  // The whole concurrent run must replay deterministically from its journal.
  core::Prepared fresh = eco::make_bench(701, 12, 60);
  Result<std::uint64_t> replayed = replay_journal(
      dir.path("journal.wal"), fresh.design.get(), fresh.state.get(), fresh.rc.get(), opt.eco);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed.value(), final_hash);
}

// --- socket front end --------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bounds every blocking read on `fd`, so a server that never answers
/// fails the test instead of hanging it.
void set_recv_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Sends one line and reads one reply line (blocking).
std::string roundtrip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) return "<send-failed>";
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return reply;
    reply.push_back(c);
  }
  return "<closed>";
}

TEST(ConcurrencyTest, SocketServerHandlesParallelConnections) {
  constexpr int kClients = 8;
  TempDir dir;
  core::Prepared bench = eco::make_bench(702, 12, 60);
  ServeOptions opt;
  opt.eco.critical_ratio = 0.03;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  SocketServer server(&service, dir.path("eco.sock"));
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_unix(dir.path("eco.sock"));
      if (fd < 0) {
        failures.fetch_add(1);
        return;
      }
      if (roundtrip(fd, "capacity 0 " + std::to_string(1 + i) + " 2 9").rfind("ok ", 0) != 0) {
        failures.fetch_add(1);
      }
      if (roundtrip(fd, "sync") != "ok") failures.fetch_add(1);
      const std::string hash = roundtrip(fd, "query hash");
      if (hash.rfind("ok ", 0) != 0 || hash.size() != 19) failures.fetch_add(1);
      if (roundtrip(fd, "bogus-verb") .rfind("err bad-input", 0) != 0) failures.fetch_add(1);
      if (roundtrip(fd, "quit") != "ok bye") failures.fetch_add(1);
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // One resolve over the socket to close the loop end to end.
  const int fd = connect_unix(dir.path("eco.sock"));
  ASSERT_GE(fd, 0);
  EXPECT_EQ(roundtrip(fd, "resolve").rfind("ok hash=", 0), 0u);
  ::close(fd);

  server.stop();
  service.stop();
}

TEST(ConcurrencyTest, SessionLimitRefusesTheExtraConnection) {
  TempDir dir;
  core::Prepared bench = eco::make_bench(703, 12, 40);
  ServeOptions opt;
  opt.max_sessions = 1;
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), opt);
  ASSERT_TRUE(service.start().is_ok());
  SocketServer server(&service, dir.path("eco.sock"));
  ASSERT_TRUE(server.start().is_ok());

  const int first = connect_unix(dir.path("eco.sock"));
  ASSERT_GE(first, 0);
  ASSERT_EQ(roundtrip(first, "sync"), "ok");  // session is live

  const int second = connect_unix(dir.path("eco.sock"));
  ASSERT_GE(second, 0);  // TCP-level accept still happens...
  std::string refusal;
  char c = 0;
  while (::recv(second, &c, 1, 0) == 1 && c != '\n') refusal.push_back(c);
  EXPECT_EQ(refusal.rfind("err unavailable", 0), 0u) << refusal;  // ...admission refuses
  ::close(second);
  ::close(first);
  server.stop();
  service.stop();
}

TEST(ConcurrencyTest, OversizedRequestLineIsRefusedAndClosed) {
  TempDir dir;
  core::Prepared bench = eco::make_bench(704, 12, 40);
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  SocketServer server(&service, dir.path("eco.sock"));
  ASSERT_TRUE(server.start().is_ok());

  const int fd = connect_unix(dir.path("eco.sock"));
  ASSERT_GE(fd, 0);
  set_recv_timeout(fd, 30);
  // One byte over the 64 KiB line cap and no newline: the server reads all
  // of it, so it closes with nothing unread and the client sees a clean EOF.
  const std::string unterminated(64 * 1024 + 1, 'x');
  ASSERT_EQ(::send(fd, unterminated.data(), unterminated.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(unterminated.size()));
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
  EXPECT_EQ(reply.rfind("err bad-input", 0), 0u) << reply;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "the connection stayed open";
  ::close(fd);
  server.stop();
  service.stop();
}

TEST(ConcurrencyTest, FinishedConnectionsAreReaped) {
  TempDir dir;
  core::Prepared bench = eco::make_bench(705, 12, 40);
  EcoService service(bench.design.get(), bench.state.get(), bench.rc.get(), ServeOptions{});
  ASSERT_TRUE(service.start().is_ok());
  SocketServer server(&service, dir.path("eco.sock"));
  ASSERT_TRUE(server.start().is_ok());

  char c = 0;
  for (int i = 0; i < 32; ++i) {
    const int fd = connect_unix(dir.path("eco.sock"));
    ASSERT_GE(fd, 0);
    set_recv_timeout(fd, 30);
    ASSERT_EQ(roundtrip(fd, "quit"), "ok bye");
    ASSERT_EQ(::recv(fd, &c, 1, 0), 0);  // the server closed its end
    ::close(fd);
  }
  const int open = connect_unix(dir.path("eco.sock"));
  ASSERT_GE(open, 0);
  set_recv_timeout(open, 30);
  ASSERT_EQ(roundtrip(open, "sync"), "ok");  // accepted and served
  // The acceptor joined the finished connections when it took this one.
  const double live = obs::metrics().gauge("serve.socket.connections.open").value();
  EXPECT_GE(live, 1.0);
  EXPECT_LE(live, 2.0);
  ::close(open);
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace cpla::serve
