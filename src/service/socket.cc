#include "service/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace egi::service {

namespace {

/// Reads until `parse` finds one complete message at the front of
/// `buffer`, then consumes it. `Parse` is ParseHttpResponse's shape; its
/// result enum has kNeedMore, kComplete and kMalformed.
template <typename Message, typename Parse>
Result<Message> ReadOne(int fd, std::string* buffer, Deadline deadline,
                        Parse parse, std::string_view what) {
  while (true) {
    Message message;
    size_t consumed = 0;
    const auto parsed = parse(*buffer, &message, &consumed);
    using Parsed = std::remove_const_t<decltype(parsed)>;
    if (parsed == Parsed::kComplete) {
      buffer->erase(0, consumed);
      return message;
    }
    if (parsed == Parsed::kMalformed) {
      return Status::Internal("malformed " + std::string(what));
    }
    EGI_ASSIGN_OR_RETURN(const size_t read, ReadSome(fd, buffer, deadline));
    if (read == 0) return Status::Internal("read timed out");
  }
}

}  // namespace

Deadline DeadlineIn(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

Result<int> Dial(const std::string& host, int port) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) +
                                   " is outside [1, 65535]");
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not an IPv4 literal: resolve. Clients dial a handful of endpoints,
    // so a blocking lookup at dial time is fine.
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      return Status::InvalidArgument("cannot resolve host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<struct sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  // connect is blocking; the OS connect timeout bounds it.
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const Status status = Status::Internal(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WriteAll(int fd, const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, std::string* buffer, Deadline deadline) {
  char chunk[64 * 1024];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return size_t{0};
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return Status::Internal("peer closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    buffer->append(chunk, static_cast<size_t>(n));
    return static_cast<size_t>(n);
  }
}

Result<HttpResponse> ReadHttpResponse(int fd, std::string* buffer,
                                      Deadline deadline) {
  return ReadOne<HttpResponse>(fd, buffer, deadline, ParseHttpResponse,
                               "HTTP response");
}

Result<IngestResponse> ReadResponseFrame(int fd, std::string* buffer,
                                         Deadline deadline) {
  const auto decode = [](std::string_view bytes, IngestResponse* out,
                         size_t* consumed) {
    return DecodeResponseFrame(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
        out, consumed);
  };
  return ReadOne<IngestResponse>(fd, buffer, deadline, decode,
                                 "response frame");
}

Status Hello(int fd, std::string* buffer, Deadline deadline) {
  std::vector<uint8_t> frame;
  EncodeHelloFrame(kProtocolVersion, &frame);
  EGI_RETURN_IF_ERROR(WriteAll(fd, frame.data(), frame.size()));
  EGI_ASSIGN_OR_RETURN(const IngestResponse response,
                       ReadResponseFrame(fd, buffer, deadline));
  if (response.type == FrameType::kReject) {
    return Status::FailedPrecondition(
        "peer rejected hello: " +
        std::string(RejectReasonName(response.reason)));
  }
  if (response.type != FrameType::kHelloAck ||
      response.protocol_version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "peer answered hello with protocol version " +
        std::to_string(response.protocol_version) + " (this client speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  return Status::OK();
}

}  // namespace egi::service
