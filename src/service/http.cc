#include "service/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/json.h"

namespace egi::service {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string_view FindHeader(const HttpHeaders& headers,
                            std::string_view name) {
  const std::string lowered = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (key == lowered) return value;
  }
  return {};
}

/// The part of parsing both message kinds share: finds the header block,
/// hands its start line to `parse_start_line` (false = malformed), then
/// reads the header lines and the Content-Length-framed body into `out`.
/// `length_required`: a message without Content-Length is malformed
/// (responses; a request without one has an empty body).
template <typename Message, typename StartLine>
HttpParseResult ParseHttpMessage(std::string_view buffer, bool length_required,
                                 StartLine parse_start_line, Message* out,
                                 size_t* consumed) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return buffer.size() > kMaxHttpHeaderBytes ? HttpParseResult::kMalformed
                                               : HttpParseResult::kNeedMore;
  }
  if (header_end > kMaxHttpHeaderBytes) return HttpParseResult::kMalformed;

  const std::string_view head = buffer.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  Message message;
  if (!parse_start_line(head.substr(0, line_end), &message)) {
    return HttpParseResult::kMalformed;
  }

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const size_t eol = rest.find("\r\n");
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return HttpParseResult::kMalformed;
    message.headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                                 std::string(Trim(line.substr(colon + 1))));
  }

  size_t content_length = 0;
  if (const std::string_view cl = FindHeader(message.headers, "content-length");
      !cl.empty()) {
    const std::string value(cl);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || parsed > kMaxHttpBodyBytes) {
      return HttpParseResult::kMalformed;
    }
    content_length = static_cast<size_t>(parsed);
  } else if (length_required) {
    return HttpParseResult::kMalformed;
  }

  const size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return HttpParseResult::kNeedMore;
  message.body = std::string(buffer.substr(header_end + 4, content_length));
  *out = std::move(message);
  *consumed = total;
  return HttpParseResult::kComplete;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  return FindHeader(headers, name);
}

std::string_view HttpResponse::Header(std::string_view name) const {
  return FindHeader(headers, name);
}

long HttpRequest::QueryInt(std::string_view key, long fallback) const {
  // Query strings here are tiny ("tail=50&foo=1"); scan key=value pairs.
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos || pair.substr(0, eq) != key) continue;
    const std::string value(pair.substr(eq + 1));
    char* end = nullptr;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') return fallback;
    return parsed;
  }
  return fallback;
}

HttpParseResult ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                                 size_t* consumed) {
  // "METHOD SP target SP HTTP/1.x"
  const auto request_line = [](std::string_view line, HttpRequest* req) {
    const size_t sp1 = line.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) return false;
    if (line.substr(sp2 + 1, 5) != "HTTP/") return false;
    const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (target.empty() || target[0] != '/') return false;
    req->method = std::string(line.substr(0, sp1));
    const size_t qmark = target.find('?');
    req->path = std::string(target.substr(0, qmark));
    if (qmark != std::string_view::npos) {
      req->query = std::string(target.substr(qmark + 1));
    }
    return true;
  };
  return ParseHttpMessage(buffer, /*length_required=*/false, request_line,
                          out, consumed);
}

HttpParseResult ParseHttpResponse(std::string_view buffer, HttpResponse* out,
                                  size_t* consumed) {
  // "HTTP/1.x SP status SP reason". Without Content-Length the body would
  // be delimited by connection close, which a keep-alive client cannot
  // frame, so it is required.
  const auto status_line = [](std::string_view line, HttpResponse* resp) {
    const size_t sp1 = line.find(' ');
    if (line.substr(0, 5) != "HTTP/" || sp1 == std::string_view::npos) {
      return false;
    }
    const std::string_view code = line.substr(sp1 + 1, 3);
    if (code.size() < 3) return false;
    for (const char c : code) {
      if (c < '0' || c > '9') return false;
      resp->status = resp->status * 10 + (c - '0');
    }
    return true;
  };
  return ParseHttpMessage(buffer, /*length_required=*/true, status_line, out,
                          consumed);
}

std::string RenderHttpRequest(std::string_view method, std::string_view target,
                              std::string_view body,
                              std::string_view content_type) {
  std::string out(method);
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: keep-alive\r\n\r\n";
  out += body;
  return out;
}

std::string RenderHttpResponse(int status, std::string_view body,
                               std::string_view content_type) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ';
  out += ReasonPhrase(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: keep-alive\r\n\r\n";
  out += body;
  return out;
}

std::string RenderHttpError(int status, std::string_view message) {
  return RenderHttpResponse(status,
                            "{\"error\":" + JsonQuote(message) + "}");
}

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

bool ParseStreamPath(std::string_view path, size_t* id,
                     std::string_view* suffix) {
  constexpr std::string_view kPrefix = "/v1/streams/";
  if (path.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view digits = path.substr(kPrefix.size());
  const size_t slash = digits.find('/');
  *suffix = slash == std::string_view::npos ? std::string_view{}
                                            : digits.substr(slash);
  if (slash != std::string_view::npos) digits = digits.substr(0, slash);
  if (digits.empty() || digits.size() > 18) return false;
  size_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *id = value;
  return true;
}

}  // namespace egi::service
