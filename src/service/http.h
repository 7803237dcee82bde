#pragma once

// Minimal HTTP/1.1 layer for the egid control plane (src/service). Parsing
// and rendering are socket-free — they consume and produce byte buffers —
// so the protocol is unit-testable in-process; src/service/server.cc owns
// the actual file descriptors. Deliberately small: no chunked encoding, no
// multipart, no TLS — the control plane is JSON request/response bodies
// behind Content-Length, which is all a detection daemon needs.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "egi/status.h"

namespace egi::service {

/// Header (name, value) pairs in arrival order; parsers lower the names.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// One parsed control-plane request.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", "DELETE", ... (uppercase)
  std::string path;    ///< request target up to '?', e.g. "/v1/streams/3"
  std::string query;   ///< raw query string after '?', "" when absent
  HttpHeaders headers;
  std::string body;

  /// Case-insensitive header lookup; empty string when absent.
  std::string_view Header(std::string_view name) const;

  /// Integer query parameter (`?tail=50`), or `fallback` when absent or
  /// malformed.
  long QueryInt(std::string_view key, long fallback) const;
};

/// One parsed control-plane response (client side: the egid-router's
/// connection to a backend shard, and loopback tests).
struct HttpResponse {
  int status = 0;
  HttpHeaders headers;
  std::string body;

  /// Case-insensitive header lookup; empty string when absent.
  std::string_view Header(std::string_view name) const;
};

/// Incremental request parser outcome.
enum class HttpParseResult {
  kNeedMore,   ///< the buffer does not yet hold one complete request
  kComplete,   ///< one request parsed; `consumed` bytes can be discarded
  kMalformed,  ///< not HTTP — close the connection
};

/// Maximum accepted header block + body sizes: the control plane carries
/// small JSON documents plus per-stream checkpoint blobs (octet-stream
/// export/import for shard migration), so the body cap is sized for a
/// detector snapshot, not for bulk data.
inline constexpr size_t kMaxHttpHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxHttpBodyBytes = 8 * 1024 * 1024;

/// Tries to parse one complete request from the front of `buffer`. On
/// kComplete, `*out` is filled and `*consumed` is the number of bytes the
/// request occupied (pipelined remainders stay in the buffer).
HttpParseResult ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                                 size_t* consumed);

/// Tries to parse one complete response from the front of `buffer`. Same
/// contract as ParseHttpRequest; responses must carry Content-Length (the
/// egid daemon always sends it — chunked encoding is out of scope).
HttpParseResult ParseHttpResponse(std::string_view buffer, HttpResponse* out,
                                  size_t* consumed);

/// Renders a complete HTTP/1.1 request with Content-Length (the router's
/// client side; `body` may be empty for GET/DELETE).
std::string RenderHttpRequest(std::string_view method, std::string_view target,
                              std::string_view body,
                              std::string_view content_type =
                                  "application/json");

/// Renders a complete HTTP/1.1 response with Content-Length and the given
/// content type (JSON unless stated otherwise). `status` is the numeric
/// code; the reason phrase is derived.
std::string RenderHttpResponse(int status, std::string_view body,
                               std::string_view content_type =
                                   "application/json");

/// `{"error":"<escaped message>"}` body with the given status.
std::string RenderHttpError(int status, std::string_view message);

/// Status code → HTTP status mapping shared by every control-plane handler.
int StatusToHttp(const Status& status);

/// Splits "/v1/streams/<id>[/<suffix>]" into the decimal id (1-18 digits)
/// and whatever follows it ("" or e.g. "/checkpoint"). False for any other
/// path, including an empty, non-decimal or longer id.
bool ParseStreamPath(std::string_view path, size_t* id,
                     std::string_view* suffix);

}  // namespace egi::service
