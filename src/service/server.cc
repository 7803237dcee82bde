#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <list>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "egi/result.h"
#include "egi/telemetry.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/socket.h"

namespace egi::service {

namespace {

/// Poll granularity of every blocking loop: the latency bound on noticing
/// RequestStop.
constexpr std::chrono::milliseconds kPoll{200};

/// A listener port must fit the socket's 16 bits; cast, 70000 would listen
/// on 4464 and -1 on 65535.
Status CheckPort(const std::string& option, int port) {
  if (port >= 0 && port <= 65535) return Status::OK();
  return Status::InvalidArgument(option + " " + std::to_string(port) +
                                 " is outside [0, 65535]");
}

}  // namespace

struct Server::Impl {
  ServiceHandler* service;
  ServerOptions options;

  int http_fd = -1;
  int ingest_fd = -1;
  int http_port = 0;
  int ingest_port = 0;

  std::atomic<bool> stop{false};
  std::vector<std::thread> acceptors;
  std::thread checkpoint_timer;

  // One entry per connection thread. The thread marks its entry done as
  // its last step, and the accept loops join done entries, so a closed
  // connection's stack is unmapped within one poll period instead of at
  // shutdown.
  struct Connection {
    std::thread thread;
    bool done = false;  // guarded by conns_mu
  };
  mutable std::mutex conns_mu;
  std::list<Connection> conns;

  Result<int> Listen(int port, int* bound_port);
  void AcceptLoop(int listen_fd, bool http);
  void HttpConnection(int fd);
  void IngestConnection(int fd);
  void CheckpointTimerLoop();
  /// Joins the finished connection threads, or all of them.
  void JoinConnections(bool finished_only);
};

Server::Server(ServiceHandler* service, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->service = service;
  impl_->options = std::move(options);
}

Server::~Server() {
  RequestStop();
  for (std::thread& t : impl_->acceptors) {
    if (t.joinable()) t.join();
  }
  if (impl_->checkpoint_timer.joinable()) impl_->checkpoint_timer.join();
  impl_->JoinConnections(/*finished_only=*/false);
  if (impl_->http_fd >= 0) ::close(impl_->http_fd);
  if (impl_->ingest_fd >= 0) ::close(impl_->ingest_fd);
}

Result<int> Server::Impl::Listen(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::Internal("bind " + options.bind_address + ":" +
                         std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 512) < 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

Status Server::Start() {
  EGI_RETURN_IF_ERROR(CheckPort("http_port", impl_->options.http_port));
  EGI_RETURN_IF_ERROR(CheckPort("ingest_port", impl_->options.ingest_port));
  EGI_ASSIGN_OR_RETURN(impl_->http_fd, impl_->Listen(impl_->options.http_port,
                                                     &impl_->http_port));
  auto ingest = impl_->Listen(impl_->options.ingest_port,
                              &impl_->ingest_port);
  if (!ingest.ok()) {
    ::close(impl_->http_fd);
    impl_->http_fd = -1;
    return ingest.status();
  }
  impl_->ingest_fd = *ingest;
  impl_->acceptors.emplace_back(
      [impl = impl_.get()] { impl->AcceptLoop(impl->http_fd, true); });
  impl_->acceptors.emplace_back(
      [impl = impl_.get()] { impl->AcceptLoop(impl->ingest_fd, false); });
  if (impl_->options.checkpoint_interval_seconds > 0.0) {
    impl_->checkpoint_timer =
        std::thread([impl = impl_.get()] { impl->CheckpointTimerLoop(); });
  }
  return Status::OK();
}

int Server::http_port() const { return impl_->http_port; }
int Server::ingest_port() const { return impl_->ingest_port; }

size_t Server::connection_threads() const {
  std::lock_guard<std::mutex> lock(impl_->conns_mu);
  return impl_->conns.size();
}

void Server::RequestStop() {
  impl_->stop.store(true, std::memory_order_relaxed);
}

Status Server::Wait() {
  while (!impl_->stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kPoll);
  }
  for (std::thread& t : impl_->acceptors) t.join();
  impl_->acceptors.clear();
  if (impl_->checkpoint_timer.joinable()) impl_->checkpoint_timer.join();
  // New frames now race only against connection threads, which HubService
  // rejects once draining; the final checkpoint runs after the queues are
  // flushed and the drain workers have stopped.
  impl_->service->BeginDrain();
  impl_->JoinConnections(/*finished_only=*/false);
  return impl_->service->Shutdown();
}

void Server::Impl::AcceptLoop(int listen_fd, bool http) {
  static auto* accepted =
      telemetry::Registry::Global().GetCounter("service.connections");
  while (!stop.load(std::memory_order_relaxed)) {
    JoinConnections(/*finished_only=*/true);
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, static_cast<int>(kPoll.count())) <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    accepted->Add(1);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conns_mu);
    const auto conn = conns.emplace(conns.end());
    conn->thread = std::thread([this, fd, http, conn] {
      if (http) {
        HttpConnection(fd);
      } else {
        IngestConnection(fd);
      }
      std::lock_guard<std::mutex> done_lock(conns_mu);
      conn->done = true;
    });
  }
}

void Server::Impl::HttpConnection(int fd) {
  std::string buffer;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto read =
        ReadSome(fd, &buffer, std::chrono::steady_clock::now() + kPoll);
    if (!read.ok()) break;
    if (*read == 0) continue;
    bool close = false;
    while (true) {
      HttpRequest request;
      size_t consumed = 0;
      const HttpParseResult parsed =
          ParseHttpRequest(buffer, &request, &consumed);
      if (parsed == HttpParseResult::kNeedMore) break;
      if (parsed == HttpParseResult::kMalformed) {
        const std::string resp = RenderHttpError(400, "malformed request");
        WriteAll(fd, resp.data(), resp.size());
        close = true;
        break;
      }
      buffer.erase(0, consumed);
      const std::string resp = service->Handle(request);
      if (!WriteAll(fd, resp.data(), resp.size()).ok()) {
        close = true;
        break;
      }
      if (request.Header("connection") == "close") {
        close = true;
        break;
      }
    }
    if (close) break;
  }
  ::close(fd);
}

void Server::Impl::IngestConnection(int fd) {
  std::string buffer;
  std::vector<uint8_t> responses;
  IngestRequest request;  // reused: its values vector keeps its capacity
  while (!stop.load(std::memory_order_relaxed)) {
    const auto read =
        ReadSome(fd, &buffer, std::chrono::steady_clock::now() + kPoll);
    if (!read.ok()) break;
    if (*read == 0) continue;

    // Decode every complete frame in the buffer, answer each, and send the
    // acks as one write (pipelined clients get batched responses).
    const std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t*>(buffer.data()), buffer.size());
    size_t offset = 0;
    responses.clear();
    bool close = false;
    while (true) {
      size_t consumed = 0;
      const FrameParseResult parsed =
          DecodeIngestFrame(bytes.subspan(offset), &request, &consumed);
      if (parsed == FrameParseResult::kNeedMore) break;
      if (parsed == FrameParseResult::kMalformed) {
        IngestResponse reject;
        reject.type = FrameType::kReject;
        reject.reason = RejectReason::kMalformed;
        EncodeResponseFrame(reject, &responses);
        close = true;
        break;
      }
      offset += consumed;
      EncodeResponseFrame(service->HandleIngest(request), &responses);
    }
    buffer.erase(0, offset);
    if (!responses.empty() &&
        !WriteAll(fd, responses.data(), responses.size()).ok()) {
      break;
    }
    if (close) break;
  }
  ::close(fd);
}

void Server::Impl::CheckpointTimerLoop() {
  const auto interval = std::chrono::duration<double>(
      options.checkpoint_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kPoll);
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    // Periodic persistence; failures are recorded, not fatal (the next
    // tick retries, and the previous complete checkpoint is still on disk).
    const Status status = service->PeriodicCheckpoint();
    if (!status.ok()) {
      telemetry::Registry::Global()
          .GetCounter("service.checkpoint_errors")
          ->Add(1);
    }
  }
}

void Server::Impl::JoinConnections(bool finished_only) {
  // Joined outside the lock: a finishing thread takes conns_mu to mark
  // itself done. std::list keeps each entry in place while it moves, so a
  // thread still running may mark an entry taken from `conns`.
  std::list<Connection> joining;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    if (!finished_only) {
      joining.swap(conns);
    } else {
      for (auto it = conns.begin(); it != conns.end();) {
        const auto next = std::next(it);
        if (it->done) joining.splice(joining.end(), conns, it);
        it = next;
      }
    }
  }
  for (Connection& conn : joining) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

namespace {

Server* g_serving = nullptr;

void StopServing(int) {
  if (g_serving != nullptr) g_serving->RequestStop();  // one atomic store
}

}  // namespace

int Serve(ServiceHandler* handler, const ServerOptions& options,
          std::string_view program, std::string_view banner,
          std::string_view banner_tail) {
  const std::string name(program);
  Server server(handler, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 started.ToString().c_str());
    return 1;
  }

  g_serving = &server;
  std::signal(SIGTERM, StopServing);
  std::signal(SIGINT, StopServing);
  std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as write errors

  std::printf("%s ready http=%d ingest=%d %s\n", std::string(banner).c_str(),
              server.http_port(), server.ingest_port(),
              std::string(banner_tail).c_str());
  std::fflush(stdout);

  const Status drained = server.Wait();
  g_serving = nullptr;
  if (!drained.ok()) {
    std::fprintf(stderr, "%s: final checkpoint failed: %s\n", name.c_str(),
                 drained.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: drained cleanly\n", name.c_str());
  return 0;
}

}  // namespace egi::service
