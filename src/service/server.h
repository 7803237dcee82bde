#pragma once

// The egid daemon's socket layer (src/service): owns the listening sockets
// and connection threads, and nothing else — every byte that arrives is
// handed to a socket-free ServiceHandler (handler.h: HubService for the
// scoring daemon, RouterCore for the sharding router), which is where all
// the logic and all the unit tests live.
//
// Two listeners:
//  - the HTTP control plane (http.h): stream CRUD, queries, /metrics,
//    /healthz, keep-alive with pipelining;
//  - the binary ingest plane (frame.h): length-prefixed point frames, one
//    ack/reject per frame, many streams multiplexed per connection.
//
// One thread per connection; a thread that finishes is joined by the
// accept loops within one poll timeout, so closed connections hold no
// stack.
//
// Shutdown: RequestStop() just sets an atomic flag (async-signal-safe, so
// the SIGTERM/SIGINT handler may call it). Wait() notices within one poll
// timeout, stops accepting, lets in-flight connections finish their current
// request, then runs the HubService drain (reject new work → flush queues →
// final checkpoint).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "egi/status.h"
#include "service/handler.h"

namespace egi::service {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// Ports to listen on, in [0, 65535]; 0 picks an ephemeral port (read
  /// back via http_port()/ingest_port() — the tests and the smoke script do
  /// this).
  int http_port = 0;
  int ingest_port = 0;
  /// Seconds between periodic background checkpoints; 0 disables the timer
  /// (explicit POST /v1/checkpoint still works).
  double checkpoint_interval_seconds = 0.0;
};

class Server {
 public:
  /// `service` must outlive the server.
  Server(ServiceHandler* service, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on both ports and starts the accept loops (plus the
  /// checkpoint timer when configured). Returns an error without side
  /// effects if either port cannot be bound, and InvalidArgument naming the
  /// option before binding anything if a port is outside [0, 65535].
  Status Start();

  /// Actual bound ports (after Start).
  int http_port() const;
  int ingest_port() const;

  /// Connection threads not yet joined: running ones plus finished ones the
  /// accept loops have not reaped yet (they reap within one poll period).
  size_t connection_threads() const;

  /// Flags the server to stop. Async-signal-safe: one relaxed atomic store.
  void RequestStop();

  /// Blocks until RequestStop, then performs the full graceful drain and
  /// returns the final checkpoint's status (OK when persistence is off).
  Status Wait();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The serving tail of the egid and egid_router mains: starts a Server for
/// `handler`, turns SIGTERM/SIGINT into RequestStop (SIGPIPE is ignored so
/// peer resets surface as write errors), prints the one-line ready banner
/// `<banner> ready http=<port> ingest=<port> <banner_tail>` to stdout, and
/// Waits. Failures go to stderr as `<program>: ...`. Returns the process
/// exit code.
int Serve(ServiceHandler* handler, const ServerOptions& options,
          std::string_view program, std::string_view banner,
          std::string_view banner_tail);

}  // namespace egi::service
