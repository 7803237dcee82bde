#pragma once

// The serving tier's socket unit (src/service): dialing, whole-buffer
// writes, deadline reads, reading one response of either protocol, and the
// client half of the ingest hello. The server (server.cc), the router's
// shard channels (router/shard_client.cc) and loadgen all use it, so a
// partial read, a deadline or a handshake is handled in one place.
// Descriptors stay blocking; deadlines are enforced with poll.

#include <chrono>
#include <cstddef>
#include <string>

#include "egi/result.h"
#include "egi/status.h"
#include "service/frame.h"
#include "service/http.h"

namespace egi::service {

using Deadline = std::chrono::steady_clock::time_point;

/// `seconds` from now.
Deadline DeadlineIn(double seconds);

/// Connects a TCP socket to `host:port` (an IPv4 literal, or a name
/// resolved with getaddrinfo) with Nagle off. The caller owns the fd. A
/// port outside [1, 65535] is InvalidArgument.
Result<int> Dial(const std::string& host, int port);

/// Writes all `size` bytes, retrying short writes and EINTR.
Status WriteAll(int fd, const void* data, size_t size);

/// Appends the bytes of one read() to `buffer` once `fd` is readable before
/// `deadline`. Returns how many were appended; 0 means the deadline passed
/// with nothing to read. An error means the peer closed or the read failed.
Result<size_t> ReadSome(int fd, std::string* buffer, Deadline deadline);

/// Reads until `buffer` holds one complete response of the control plane
/// (HTTP) or the ingest plane (ack, reject or helloack frame), consumes it
/// from the buffer and returns it. The deadline passing is an error.
Result<HttpResponse> ReadHttpResponse(int fd, std::string* buffer,
                                      Deadline deadline);
Result<IngestResponse> ReadResponseFrame(int fd, std::string* buffer,
                                         Deadline deadline);

/// The client half of the ingest plane's version handshake: sends a hello
/// frame and waits for the helloack. A typed reject or another protocol
/// version fails with FailedPrecondition; anything else is a transport
/// error.
Status Hello(int fd, std::string* buffer, Deadline deadline);

}  // namespace egi::service
