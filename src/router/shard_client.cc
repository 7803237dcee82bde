// TCP implementation of ShardChannel (src/router): two lazily-dialed
// sockets per channel, control (HTTP) and data (frames), each operation
// bounded by one deadline. Every byte goes through the serving tier's
// socket unit (service/socket.h), which the server and loadgen share.

#include <unistd.h>

#include <string>
#include <vector>

#include "router/shard_channel.h"
#include "service/socket.h"

namespace egi::router {

namespace {

class TcpChannel final : public ShardChannel {
 public:
  TcpChannel(ShardEndpoint endpoint, double timeout_seconds)
      : endpoint_(std::move(endpoint)), timeout_seconds_(timeout_seconds) {}

  ~TcpChannel() override {
    if (http_fd_ >= 0) ::close(http_fd_);
    if (ingest_fd_ >= 0) ::close(ingest_fd_);
  }

  Result<HttpReply> Http(std::string_view method, std::string_view target,
                         std::string_view body,
                         std::string_view content_type) override {
    const service::Deadline deadline = service::DeadlineIn(timeout_seconds_);
    if (http_fd_ < 0) {
      EGI_ASSIGN_OR_RETURN(http_fd_,
                           service::Dial(endpoint_.host, endpoint_.http_port));
      http_buffer_.clear();
    }
    const std::string request =
        service::RenderHttpRequest(method, target, body, content_type);
    const Status written =
        service::WriteAll(http_fd_, request.data(), request.size());
    if (!written.ok()) return Fail(&http_fd_, written);
    auto response = service::ReadHttpResponse(http_fd_, &http_buffer_,
                                              deadline);
    if (!response.ok()) return Fail(&http_fd_, response.status());
    return HttpReply{response->status, std::move(response->body)};
  }

  Result<service::IngestResponse> Ingest(
      uint64_t stream, std::span<const double> values) override {
    const service::Deadline deadline = service::DeadlineIn(timeout_seconds_);
    if (ingest_fd_ < 0) {
      EGI_ASSIGN_OR_RETURN(
          ingest_fd_, service::Dial(endpoint_.host, endpoint_.ingest_port));
      ingest_buffer_.clear();
      // Version handshake before the first data frame: a shard speaking a
      // different protocol revision fails loudly here, not by misparsing.
      const Status hello =
          service::Hello(ingest_fd_, &ingest_buffer_, deadline);
      if (!hello.ok()) return Fail(&ingest_fd_, hello);
    }
    frame_.clear();
    service::EncodeIngestFrame(stream, values, &frame_);
    const Status written =
        service::WriteAll(ingest_fd_, frame_.data(), frame_.size());
    if (!written.ok()) return Fail(&ingest_fd_, written);
    auto response =
        service::ReadResponseFrame(ingest_fd_, &ingest_buffer_, deadline);
    if (!response.ok()) return Fail(&ingest_fd_, response.status());
    return response;
  }

 private:
  // Any transport error is terminal for the socket: close it so the next
  // call dials afresh.
  static Status Fail(int* fd, Status status) {
    ::close(*fd);
    *fd = -1;
    return status;
  }

  ShardEndpoint endpoint_;
  double timeout_seconds_;
  int http_fd_ = -1;
  int ingest_fd_ = -1;
  std::string http_buffer_;
  std::string ingest_buffer_;
  std::vector<uint8_t> frame_;
};

}  // namespace

ChannelFactory TcpChannelFactory(double timeout_seconds) {
  return [timeout_seconds](const ShardEndpoint& endpoint) {
    return std::make_unique<TcpChannel>(endpoint, timeout_seconds);
  };
}

}  // namespace egi::router
