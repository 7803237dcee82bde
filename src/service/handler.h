#pragma once

// The seam between the socket layer (server.h) and the request logic: a
// ServiceHandler is anything that can answer one HTTP control-plane request
// and one binary ingest frame. Two implementations exist — HubService (the
// stream-owning daemon, hub_service.h) and RouterCore (the sharding front
// door, src/router/router_core.h) — and both stay socket-free so their
// logic is unit-testable in-process while Server owns the descriptors.

#include <string>

#include "egi/status.h"
#include "service/frame.h"
#include "service/http.h"

namespace egi::service {

class ServiceHandler {
 public:
  virtual ~ServiceHandler() = default;

  /// Answers one control-plane request with a complete rendered HTTP/1.1
  /// response (RenderHttpResponse). Thread-safe.
  virtual std::string Handle(const HttpRequest& request) = 0;

  /// Answers one ingest frame (point batch or hello) with exactly one
  /// ack/helloack/reject. Thread-safe; this is the hot path.
  virtual IngestResponse HandleIngest(const IngestRequest& request) = 0;

  /// Enters drain mode: reject new ingest, finish queued work. Called once
  /// by Server::Wait after the acceptors stop.
  virtual void BeginDrain() = 0;

  /// Final teardown after the connection threads have joined; returns the
  /// status of the closing checkpoint (OK when persistence is off).
  virtual Status Shutdown() = 0;

  /// One periodic-checkpoint tick (Server's timer thread). Implementations
  /// without local persistence return OK.
  virtual Status PeriodicCheckpoint() = 0;
};

}  // namespace egi::service
