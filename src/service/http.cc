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

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  const std::string lowered = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (key == lowered) return value;
  }
  return {};
}

std::string_view HttpResponse::Header(std::string_view name) const {
  const std::string lowered = ToLower(name);
  for (const auto& [key, value] : headers) {
    if (key == lowered) return value;
  }
  return {};
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
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return buffer.size() > kMaxHttpHeaderBytes ? HttpParseResult::kMalformed
                                               : HttpParseResult::kNeedMore;
  }
  if (header_end > kMaxHttpHeaderBytes) return HttpParseResult::kMalformed;

  const std::string_view head = buffer.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // "METHOD SP target SP HTTP/1.x"
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return HttpParseResult::kMalformed;
  }
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") return HttpParseResult::kMalformed;

  HttpRequest req;
  req.method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return HttpParseResult::kMalformed;
  const size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    req.path = std::string(target);
  } else {
    req.path = std::string(target.substr(0, qmark));
    req.query = std::string(target.substr(qmark + 1));
  }

  // Header lines.
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const size_t eol = rest.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return HttpParseResult::kMalformed;
    req.headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                             std::string(Trim(line.substr(colon + 1))));
  }

  size_t content_length = 0;
  if (const std::string_view cl = req.Header("content-length"); !cl.empty()) {
    const std::string value(cl);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' ||
        parsed > kMaxHttpBodyBytes) {
      return HttpParseResult::kMalformed;
    }
    content_length = static_cast<size_t>(parsed);
  }

  const size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return HttpParseResult::kNeedMore;
  req.body = std::string(buffer.substr(header_end + 4, content_length));
  *out = std::move(req);
  *consumed = total;
  return HttpParseResult::kComplete;
}

HttpParseResult ParseHttpResponse(std::string_view buffer, HttpResponse* out,
                                  size_t* consumed) {
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return buffer.size() > kMaxHttpHeaderBytes ? HttpParseResult::kMalformed
                                               : HttpParseResult::kNeedMore;
  }
  if (header_end > kMaxHttpHeaderBytes) return HttpParseResult::kMalformed;

  const std::string_view head = buffer.substr(0, header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // "HTTP/1.x SP status SP reason"
  if (status_line.substr(0, 5) != "HTTP/") return HttpParseResult::kMalformed;
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) return HttpParseResult::kMalformed;
  const std::string_view code_on = status_line.substr(sp1 + 1);
  if (code_on.size() < 3) return HttpParseResult::kMalformed;
  int status = 0;
  for (size_t i = 0; i < 3; ++i) {
    const char c = code_on[i];
    if (c < '0' || c > '9') return HttpParseResult::kMalformed;
    status = status * 10 + (c - '0');
  }

  HttpResponse resp;
  resp.status = status;

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const size_t eol = rest.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return HttpParseResult::kMalformed;
    resp.headers.emplace_back(ToLower(Trim(line.substr(0, colon))),
                              std::string(Trim(line.substr(colon + 1))));
  }

  size_t content_length = 0;
  if (const std::string_view cl = resp.Header("content-length");
      !cl.empty()) {
    const std::string value(cl);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || parsed > kMaxHttpBodyBytes) {
      return HttpParseResult::kMalformed;
    }
    content_length = static_cast<size_t>(parsed);
  } else {
    // Without Content-Length the body would be delimited by connection
    // close, which the keep-alive client cannot frame — reject.
    return HttpParseResult::kMalformed;
  }

  const size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return HttpParseResult::kNeedMore;
  resp.body = std::string(buffer.substr(header_end + 4, content_length));
  *out = std::move(resp);
  *consumed = total;
  return HttpParseResult::kComplete;
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
