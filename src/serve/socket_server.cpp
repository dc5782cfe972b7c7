#include "src/serve/socket_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/util/logging.hpp"
#include "src/util/str.hpp"

namespace cpla::serve {

namespace {

// Longest request line a connection may send; a longer one (or an
// unterminated one past this size) is refused and the connection closed,
// so a client cannot grow the daemon's memory without bound.
constexpr std::size_t kMaxLineBytes = 64 * 1024;

std::string fail_reply(const Status& status) {
  return str_format("err %s: %s", cpla::to_string(status.code()), status.message().c_str());
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

LineReply handle_line(EcoService* service, int session, std::string_view line) {
  LineReply out;
  Result<Request> parsed = parse_request(line);
  if (!parsed.is_ok()) {
    out.text = fail_reply(parsed.status());
    return out;
  }
  const Request& req = parsed.value();

  if (is_edit(req.kind)) {
    Result<std::uint64_t> seq = service->submit(session, req);
    out.text = seq.is_ok() ? str_format("ok %llu", static_cast<unsigned long long>(seq.value()))
                           : fail_reply(seq.status());
    return out;
  }

  switch (req.kind) {
    case RequestKind::kEmpty:
      return out;  // no reply line for comments / blank lines
    case RequestKind::kResolve: {
      const ResolveOutcome r = service->resolve(session);
      out.text = r.status.is_ok()
                     ? str_format("ok hash=%016llx seq=%llu",
                                  static_cast<unsigned long long>(r.hash),
                                  static_cast<unsigned long long>(r.seq))
                     : fail_reply(r.status);
      return out;
    }
    case RequestKind::kSync: {
      const Status st = service->sync(session);
      out.text = st.is_ok() ? "ok" : fail_reply(st);
      return out;
    }
    case RequestKind::kQuery: {
      const std::shared_ptr<const StateSnapshot> snap = service->snapshot();
      if (req.query == "hash") {
        out.text = str_format("ok %016llx", static_cast<unsigned long long>(snap->hash));
      } else if (req.query == "seq") {
        out.text = str_format("ok %llu", static_cast<unsigned long long>(snap->seq));
      } else if (req.query == "metrics") {
        out.text = str_format(
            "ok avg_tcp=%.17g max_tcp=%.17g wire_overflow=%ld via_overflow=%ld via_count=%ld",
            snap->metrics.avg_tcp, snap->metrics.max_tcp, snap->metrics.wire_overflow,
            snap->metrics.via_overflow, snap->metrics.via_count);
      } else if (req.query == "stats") {
        const ServeStats s = service->stats();
        out.text = str_format(
            "ok submitted=%llu applied=%llu rejected=%llu coalesced=%llu shed=%llu "
            "resolves=%llu batches=%llu checkpoints=%llu "
            "journal_records=%llu sessions=%d read_only=%d",
            static_cast<unsigned long long>(s.submitted),
            static_cast<unsigned long long>(s.applied),
            static_cast<unsigned long long>(s.rejected),
            static_cast<unsigned long long>(s.coalesced),
            static_cast<unsigned long long>(s.shed),
            static_cast<unsigned long long>(s.resolves),
            static_cast<unsigned long long>(s.batches),
            static_cast<unsigned long long>(s.checkpoints),
            static_cast<unsigned long long>(s.journal_records), s.sessions,
            s.read_only ? 1 : 0);
      } else {  // "net"
        if (req.net < 0 || static_cast<std::size_t>(req.net) >= snap->layers.size()) {
          out.text = fail_reply(Status(StatusCode::kBadInput, "net id out of range"));
        } else {
          out.text = "ok";
          if (snap->layers[static_cast<std::size_t>(req.net)] != nullptr) {
            for (int layer : *snap->layers[static_cast<std::size_t>(req.net)]) {
              out.text += str_format(" %d", layer);
            }
          }
        }
      }
      return out;
    }
    case RequestKind::kQuit:
      out.text = "ok bye";
      out.quit = true;
      return out;
    default:
      break;
  }
  out.text = fail_reply(Status(StatusCode::kInternal, "unhandled request kind"));
  return out;
}

SocketServer::SocketServer(EcoService* service, std::string path)
    : service_(service), path_(std::move(path)) {}

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() {
  CPLA_CHECK(listen_fd_ < 0, Status(StatusCode::kInternal, "serve: server already started"));
  sockaddr_un addr{};
  CPLA_CHECK(path_.size() < sizeof(addr.sun_path),
             Status(StatusCode::kBadInput, "serve: socket path too long"));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CPLA_CHECK(fd >= 0, Status(StatusCode::kInternal, "serve: socket() failed"));
  ::unlink(path_.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path_.c_str(), path_.size());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const Status st(StatusCode::kInternal,
                    str_format("serve: cannot listen on %s: %s", path_.c_str(),
                               errno_str(errno).c_str()));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  LOG_INFO("serve: listening on %s", path_.c_str());
  return Status::ok();
}

void SocketServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
  }
  std::vector<std::shared_ptr<Conn>> conns;
  {
    MutexLock lk(mu_);
    conns = conns_;
    for (const auto& conn : conns) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  MutexLock lk(mu_);
  conns_.clear();
  obs::metrics().gauge("serve.socket.connections.open").set(0.0);
}

void SocketServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or broken): stop accepting
    }
    obs::metrics().counter("serve.socket.connections").add();
    auto conn = std::make_shared<Conn>();
    MutexLock lk(mu_);
    // Reap finished connections: a -1 fd was set under mu_ as the
    // connection thread's last act, so its join returns promptly.
    std::erase_if(conns_, [](const std::shared_ptr<Conn>& c) {
      if (c->fd >= 0) return false;
      if (c->thread.joinable()) c->thread.join();
      return true;
    });
    conn->fd = fd;
    conns_.push_back(conn);
    obs::metrics().gauge("serve.socket.connections.open").set(static_cast<double>(conns_.size()));
    conn->thread = std::thread([this, conn] { serve_connection(conn.get()); });
  }
}

void SocketServer::serve_connection(Conn* conn) {
  int fd = -1;
  {
    // fd is published under mu_ by the acceptor before this thread starts.
    MutexLock lk(mu_);
    fd = conn->fd;
  }
  const Result<int> session = service_->open_session();
  if (!session.is_ok()) {
    send_all(fd, fail_reply(session.status()) + "\n");
  } else {
    std::string buf;
    char chunk[4096];
    bool alive = true;
    while (alive) {
      const std::size_t nl = buf.find('\n');
      if ((nl == std::string::npos ? buf.size() : nl) > kMaxLineBytes) {
        send_all(fd, fail_reply(Status(StatusCode::kBadInput,
                                       str_format("request line over %zu bytes",
                                                  kMaxLineBytes))) +
                         "\n");
        break;
      }
      if (nl == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      LineReply reply = handle_line(service_, session.value(), line);
      if (!reply.text.empty()) {
        reply.text += '\n';
        if (!send_all(fd, reply.text)) break;
      }
      if (reply.quit) alive = false;
    }
    service_->close_session(session.value());
  }
  // close under mu_ so stop() never shutdown()s a recycled descriptor
  MutexLock lk(mu_);
  ::close(fd);
  conn->fd = -1;
}

}  // namespace cpla::serve
