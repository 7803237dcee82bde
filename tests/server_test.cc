// The socket side of both protocols, over real loopback sockets: a
// Server in front of an in-process HubService, driven by the router's
// TcpChannel client and the socket unit directly. The router tests use
// loopback channels, so these are the tier-1 tests of the TCP paths.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/shard_channel.h"
#include "service/hub_service.h"
#include "service/server.h"
#include "service/socket.h"
#include "util/json.h"

namespace egi::service {
namespace {

std::unique_ptr<HubService> SmallService() {
  HubServiceOptions options;
  options.spec = "ensemble:wmax=5,amax=5,n=8,seed=42,threads=2";
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  auto service = HubService::Create(std::move(options));
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(service).value();
}

/// A Server on ephemeral loopback ports in front of a HubService.
struct LiveServer {
  LiveServer() : service(SmallService()), server(service.get(), {}) {
    EXPECT_TRUE(server.Start().ok());
  }
  ~LiveServer() {
    server.RequestStop();
    EXPECT_TRUE(server.Wait().ok());
  }
  router::ShardEndpoint endpoint() const {
    return {"127.0.0.1", server.http_port(), server.ingest_port()};
  }

  std::unique_ptr<HubService> service;
  Server server;
};

long MapsLines() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(TcpChannelTest, CreateDescribeAndIngestOverSockets) {
  LiveServer live;
  auto channel = router::TcpChannelFactory(10.0)(live.endpoint());

  auto created = channel->Http("POST", "/v1/streams",
                               "{\"tenant\":\"t\",\"name\":\"s\"}",
                               "application/json");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->status, 201);
  uint64_t id = 99;
  ASSERT_TRUE(JsonFindUInt(created->body, "stream", &id));
  EXPECT_EQ(id, 0u);

  // The first Ingest dials the ingest plane and completes the hello.
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  auto ack = channel->Ingest(id, values);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->type, FrameType::kAck);
  EXPECT_EQ(ack->accepted_total, values.size());
  ack = channel->Ingest(id, values);  // same connection, no second hello
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->accepted_total, 2 * values.size());

  auto flushed = channel->Http("POST", "/v1/flush", "", "application/json");
  ASSERT_TRUE(flushed.ok()) << flushed.status();
  EXPECT_EQ(flushed->status, 200);
  auto described = channel->Http("GET", "/v1/streams/0", "",
                                 "application/json");
  ASSERT_TRUE(described.ok()) << described.status();
  EXPECT_EQ(described->status, 200);
  uint64_t scored = 0;
  ASSERT_TRUE(JsonFindUInt(described->body, "scored", &scored));
  EXPECT_EQ(scored, 2 * values.size());
}

TEST(TcpChannelTest, SilentListenerTimesOut) {
  // Accepts (the kernel completes the handshake from the backlog) and
  // never answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<struct sockaddr*>(&addr),
                          &len),
            0);
  const int port = ntohs(addr.sin_port);

  auto channel = router::TcpChannelFactory(0.3)({"127.0.0.1", port, port});
  const auto started = std::chrono::steady_clock::now();
  auto reply = channel->Http("GET", "/healthz", "", "application/json");
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  EXPECT_FALSE(reply.ok());
  EXPECT_GE(seconds, 0.25);
  EXPECT_LT(seconds, 5.0);
  auto frame = channel->Ingest(0, std::vector<double>{1.0});
  EXPECT_FALSE(frame.ok());  // the hello goes unanswered the same way
  ::close(listener);
}

TEST(ServerTest, ClosedConnectionsAreReaped) {
  LiveServer live;
  const auto http_once = [&] {
    auto fd = Dial("127.0.0.1", live.server.http_port());
    ASSERT_TRUE(fd.ok()) << fd.status();
    const std::string request =
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_TRUE(WriteAll(*fd, request.data(), request.size()).ok());
    std::string buffer;
    auto response = ReadHttpResponse(*fd, &buffer, DeadlineIn(10.0));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    ::close(*fd);
  };
  const auto ingest_once = [&] {
    auto fd = Dial("127.0.0.1", live.server.ingest_port());
    ASSERT_TRUE(fd.ok()) << fd.status();
    std::string buffer;
    EXPECT_TRUE(Hello(*fd, &buffer, DeadlineIn(10.0)).ok());
    ::close(*fd);
  };
  http_once();
  ingest_once();
  const long before = MapsLines();
  for (int i = 0; i < 256; ++i) http_once();
  for (int i = 0; i < 256; ++i) ingest_once();

  // The last connections are reaped within a poll period of closing: every
  // connection thread is joined, and its stack unmapped. ThreadSanitizer
  // maps memory of its own per thread, so its builds count the joins only.
#if defined(__SANITIZE_THREAD__)
  constexpr bool kCountMaps = false;
#else
  constexpr bool kCountMaps = true;
#endif
  const auto grown = [&] { return kCountMaps ? MapsLines() - before : 0L; };
  for (int i = 0;
       i < 50 && (live.server.connection_threads() != 0 || grown() >= 64);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(live.server.connection_threads(), 0u)
      << "closed connections were never joined";
  EXPECT_LT(grown(), 64) << "closed connections kept their thread stacks";
}

TEST(ServerTest, OutOfRangePortsAreInvalidArgument) {
  // Cast to the socket's 16 bits, 70000 would listen on 4464 and -1 on
  // 65535. Start rejects either before binding anything.
  const auto service = SmallService();
  struct Case {
    int http_port;
    int ingest_port;
    const char* message;
  };
  for (const Case& c :
       {Case{70000, 0, "http_port 70000 is outside [0, 65535]"},
        Case{0, -1, "ingest_port -1 is outside [0, 65535]"},
        Case{0, 65536, "ingest_port 65536 is outside [0, 65535]"}}) {
    ServerOptions options;
    options.http_port = c.http_port;
    options.ingest_port = c.ingest_port;
    Server server(service.get(), options);
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument) << started;
    EXPECT_EQ(started.message(), c.message);
    EXPECT_EQ(server.http_port(), 0) << "bound a listener anyway";
  }

  // Dial takes the range shard endpoints are parsed with.
  for (const int port : {0, -1, 65536, 70000}) {
    const auto fd = Dial("127.0.0.1", port);
    EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument) << port;
    EXPECT_EQ(fd.status().message(),
              "port " + std::to_string(port) + " is outside [1, 65535]");
  }
}

}  // namespace
}  // namespace egi::service
