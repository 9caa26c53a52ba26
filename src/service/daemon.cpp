#include "service/daemon.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/recorder.h"
#include "service/http.h"
#include "service/protocol.h"

namespace dp::service {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes all of `data`; returns false on a connection error.
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Daemon::Daemon(DiagnosisService& service, std::uint16_t port)
    : service_(service), endpoints_(std::make_unique<HttpEndpoints>()) {
  // The scrape surface, one table instead of per-endpoint branches
  // (http.h). Every producer reads lock-free or mutex-guarded state, so
  // serving them from connection threads is safe.
  endpoints_->add("/metrics", "text/plain; version=0.0.4; charset=utf-8",
                  [this] { return service_.metrics().to_prometheus(); });
  endpoints_->add("/healthz", "text/plain; charset=utf-8",
                  [] { return std::string("ok\n"); });
  endpoints_->add("/tracez", "application/json", [] {
    return obs::Recorder::instance().to_json() + "\n";
  });
  endpoints_->add("/profilez", "text/plain; charset=utf-8", [] {
    // Collapsed-stack text, flamegraph-ready (recorder.h).
    return obs::Recorder::instance().collapsed();
  });
  endpoints_->add("/slowz", "application/json",
                  [this] { return service_.slowz_json() + "\n"; });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
}

Daemon::~Daemon() { stop(); }

void Daemon::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listener = listen_fd_.load(std::memory_order_acquire);
    if (listener < 0) break;
    const int fd = ::accept(listener, nullptr, nullptr);
    // Each accept also reaps connections that finished since the last one,
    // so the handle set tracks *live* connections (plus at most the ones
    // that finished while accept blocked).
    reap_finished();
    if (fd < 0) {
      if (errno == EINTR) continue;
      // stop() closed the listener (or it genuinely failed): wind down.
      break;
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    const std::uint64_t id = next_connection_id_++;
    connections_.emplace(id, std::thread([this, fd, id] {
                           handle_connection(fd, id);
                         }));
  }
  // Wind-down: join everything still registered, finished or not.
  std::map<std::uint64_t, std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connections_);
    finished_.clear();
  }
  for (auto& [id, connection] : connections) {
    if (connection.joinable()) connection.join();
  }
}

void Daemon::mark_finished(std::uint64_t connection_id) {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  finished_.push_back(connection_id);
}

void Daemon::reap_finished() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const std::uint64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // already taken by wind-down
      to_join.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  // Join outside the lock: the threads are past their serving loop (they
  // marked themselves finished), so these joins complete immediately.
  for (auto& thread : to_join) {
    if (thread.joinable()) thread.join();
  }
}

void Daemon::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // Closing the listener fails the blocking accept() in serve().
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Daemon::handle_connection(int fd, std::uint64_t connection_id) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  char chunk[4096];
  bool open = true;
  // Undecided until enough bytes arrive to distinguish an HTTP GET from the
  // NDJSON protocol ("GET " can only be an HTTP request line: a JSON object
  // line starts with '{').
  enum class Mode { kUndecided, kNdjson, kHttp } mode = Mode::kUndecided;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));

    if (mode == Mode::kUndecided) {
      if (buffer.size() >= 4) {
        mode = looks_like_http(buffer) ? Mode::kHttp : Mode::kNdjson;
      } else if (buffer.find('\n') != std::string::npos) {
        mode = Mode::kNdjson;  // a full (short) line: cannot be HTTP
      } else {
        continue;  // need more bytes to tell
      }
    }
    if (mode == Mode::kHttp) {
      // One request per connection (Connection: close): wait for the end of
      // the header block, answer, done. Good enough for curl and scrapers.
      if (!http_request_complete(buffer)) {
        if (buffer.size() > 64 * 1024) break;  // runaway header block
        continue;
      }
      write_all(fd, endpoints_->respond(buffer));
      break;
    }

    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && open;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      bool shutdown_requested = false;
      std::string response =
          handle_request(service_, line, shutdown_requested);
      response.push_back('\n');
      if (!write_all(fd, response)) open = false;
      if (shutdown_requested) {
        // Drain queued work, then unblock the accept loop. The response was
        // already flushed, so the requesting client gets its ack.
        service_.shutdown(/*drain=*/true);
        stop();
        open = false;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
  mark_finished(connection_id);
}

}  // namespace dp::service
