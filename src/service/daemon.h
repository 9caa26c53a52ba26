// diffprovd's transport: newline-delimited JSON over loopback TCP, with a
// minimal HTTP GET fast path on the same listener.
//
// Thread-per-connection on top of the in-process DiagnosisService -- the
// service's own admission control is the backpressure mechanism, so the
// transport stays dumb: read a line, hand it to protocol.h, write a line.
// Binds 127.0.0.1 only (this is a local diagnosis daemon, not a network
// service); port 0 asks the kernel for an ephemeral port, which tests and
// the CI smoke read back via Daemon::port() / --port-file.
//
// Scrape endpoints: a connection whose first four bytes are "GET " is
// served as one HTTP request and closed (sniff/route/respond live in
// http.h, shared by every endpoint) -- `/metrics` (Prometheus text
// exposition of the service registry), `/healthz` ("ok"), `/tracez` (the
// recorder's ring dump as JSON), `/profilez` (the recorder's sampled
// collapsed stacks, flamegraph-ready), and `/slowz` (the slow-query
// journal as JSON). Anything else on the socket is the NDJSON protocol, so
// `curl` and `diffprov_client` share the port.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/service.h"

namespace dp::service {

class HttpEndpoints;

class Daemon {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Throws
  /// std::runtime_error on socket failures.
  Daemon(DiagnosisService& service, std::uint16_t port);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The bound port (the kernel's choice when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accepts and serves connections until stop() is called or a client
  /// sends a shutdown op. Blocks; run it on the main thread (diffprovd
  /// does) or a dedicated one (tests do).
  void serve();

  /// Unblocks serve() and closes the listener; in-flight connection threads
  /// are joined, the service itself is left to the caller.
  void stop();

 private:
  void handle_connection(int fd, std::uint64_t connection_id);
  /// Marks a connection thread done; the accept loop joins it later (a
  /// thread cannot join itself).
  void mark_finished(std::uint64_t connection_id);
  /// Joins and forgets every connection thread that has marked itself
  /// finished, so a long-lived daemon holds handles only for *live*
  /// connections instead of accumulating one dead std::thread per past
  /// client.
  void reap_finished();

  DiagnosisService& service_;
  /// The HTTP scrape surface (route table + renderer); built once in the
  /// constructor, read-only afterwards, shared by connection threads.
  std::unique_ptr<HttpEndpoints> endpoints_;
  /// Atomic: stop() swaps in -1 and closes it while serve() is blocked in
  /// accept() on another thread.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex threads_mutex_;
  std::map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;  // ids awaiting their join
  std::uint64_t next_connection_id_ = 1;
};

}  // namespace dp::service
