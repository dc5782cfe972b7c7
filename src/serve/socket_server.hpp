#pragma once

// AF_UNIX line-protocol front end for EcoService. One connection = one
// edit session: the acceptor opens a service session per connection (a
// refused open — session limit — is answered with "err unavailable: ..."
// and an immediate close, which is the connection-level admission
// control), then a dedicated thread reads newline-terminated requests and
// writes one reply line per request.
//
// handle_line() — the request dispatcher — is a free function so the
// in-process tests and the chaos harness exercise byte-identical protocol
// behavior without a socket in the loop.

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/serve/service.hpp"
#include "src/util/mutex.hpp"
#include "src/util/status.hpp"
#include "src/util/thread_annotations.hpp"

namespace cpla::serve {

struct LineReply {
  std::string text;   // one reply line, no trailing newline; empty = no reply
  bool quit = false;  // close the connection after replying
};

/// Executes one protocol line against a service session. Edits reply
/// "ok SEQ", resolve replies "ok hash=<16-hex> seq=N", queries answer off
/// the published snapshot; every failure is "err <code>: <message>".
LineReply handle_line(EcoService* service, int session, std::string_view line);

class SocketServer {
 public:
  /// Borrows `service`, which must outlive the server and be start()ed
  /// before the server is.
  SocketServer(EcoService* service, std::string path);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on the unix-domain path (an existing socket file is
  /// replaced) and starts the acceptor thread.
  Status start();
  /// Shuts every connection down, joins all threads, unlinks the socket.
  void stop();

  const std::string& path() const { return path_; }

 private:
  // Conn::fd moves under mu_ (set at accept, read at connection-thread
  // entry, -1'd at close) so stop() never shutdown()s a recycled
  // descriptor; TSA cannot name the enclosing server's mu_ from a nested
  // struct, so the discipline is documented here and the accesses take
  // MutexLock(mu_) by hand. `thread` is written once under mu_ at accept
  // and joined either by the acceptor under mu_ (once fd is -1, so the
  // thread is past its last lock) or by stop() after the acceptor quit.
  struct Conn {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(Conn* conn) CPLA_EXCLUDES(mu_);

  EcoService* service_;
  std::string path_;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  Mutex mu_;
  std::vector<std::shared_ptr<Conn>> conns_ CPLA_GUARDED_BY(mu_);
};

}  // namespace cpla::serve
