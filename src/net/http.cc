#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <limits>

#include "util/json.h"

namespace vtrain {
namespace net {

namespace {

bool
iequals(std::string_view a, std::string_view b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
               return std::tolower(static_cast<unsigned char>(x)) ==
                      std::tolower(static_cast<unsigned char>(y));
           });
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

const std::string *
findHeaderIn(const std::vector<HttpHeader> &headers,
             std::string_view name)
{
    for (const HttpHeader &h : headers) {
        if (iequals(h.name, name))
            return &h.value;
    }
    return nullptr;
}

/** A token character (RFC 9110 §5.6.2). */
bool
isTchar(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') ||
           std::string_view("!#$%&'*+-.^_`|~").find(c) !=
               std::string_view::npos;
}

/**
 * Splits the header block [begin, end) of `text` into name/value
 * pairs.  Returns false on a malformed field line.
 */
bool
parseHeaderLines(std::string_view text, size_t begin, size_t end,
                 std::vector<HttpHeader> *out)
{
    size_t pos = begin;
    while (pos < end) {
        size_t eol = text.find("\r\n", pos);
        if (eol == std::string_view::npos || eol > end)
            eol = end;
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.empty())
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0)
            return false;
        // A field name is a token (RFC 9110 §5.6.2), so whitespace
        // (obs-fold) and line breaks never pass, and a value may not
        // hold a bare CR, a bare LF or NUL (RFC 9110 §5.5): a peer that
        // ends lines at a bare LF would read other fields than we do.
        const std::string_view name = line.substr(0, colon);
        if (!std::all_of(name.begin(), name.end(), isTchar) ||
            line.find_first_of(std::string_view("\r\n\0", 3), colon) !=
                std::string_view::npos)
            return false;
        out->push_back(HttpHeader{std::string(name),
                                  std::string(trim(line.substr(
                                      colon + 1)))});
    }
    return true;
}

/** Connection semantics shared by 1.0 and 1.1 messages. */
bool
keepAliveFor(std::string_view version, const std::string *connection)
{
    if (connection) {
        const std::string value = toLower(*connection);
        if (value.find("close") != std::string::npos)
            return false;
        if (value.find("keep-alive") != std::string::npos)
            return true;
    }
    return version == "HTTP/1.1";
}

} // namespace

std::string_view
HttpRequest::path() const
{
    const std::string_view t(target);
    const size_t query = t.find('?');
    return query == std::string_view::npos ? t : t.substr(0, query);
}

const std::string *
HttpRequest::findHeader(std::string_view name) const
{
    return findHeaderIn(headers, name);
}

const std::string *
HttpResponse::findHeader(std::string_view name) const
{
    return findHeaderIn(headers, name);
}

std::string_view
statusReason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 204:
        return "No Content";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 413:
        return "Content Too Large";
      case 422:
        return "Unprocessable Content";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 501:
        return "Not Implemented";
      case 503:
        return "Service Unavailable";
      case 505:
        return "HTTP Version Not Supported";
      default:
        return status >= 200 && status < 300 ? "Success" : "Error";
    }
}

std::string
serializeResponse(const HttpResponse &response, bool keep_alive)
{
    std::string out = "HTTP/1.1 " + std::to_string(response.status) +
                      " " + std::string(statusReason(response.status)) +
                      "\r\n";
    if (!response.content_type.empty())
        out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) +
           "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n"
                      : "Connection: close\r\n";
    for (const HttpHeader &h : response.headers)
        out += h.name + ": " + h.value + "\r\n";
    out += "\r\n";
    out += response.body;
    return out;
}

std::string
serializeRequest(const HttpRequest &request)
{
    std::string out = request.method + " " + request.target + " " +
                      (request.version.empty() ? "HTTP/1.1"
                                               : request.version) +
                      "\r\n";
    for (const HttpHeader &h : request.headers)
        out += h.name + ": " + h.value + "\r\n";
    out += "Content-Length: " + std::to_string(request.body.size()) +
           "\r\n\r\n";
    out += request.body;
    return out;
}

std::string
jsonErrorBody(int status, std::string_view message)
{
    json::Value error = json::Value::object();
    error.set("code", static_cast<int64_t>(status));
    error.set("status", std::string(statusReason(status)));
    error.set("message", std::string(message));
    json::Value root = json::Value::object();
    root.set("error", std::move(error));
    return root.dump();
}

HttpResponse
errorResponse(int status, std::string_view message)
{
    HttpResponse response;
    response.status = status;
    response.body = jsonErrorBody(status, message);
    return response;
}

int
retryAfterSeconds(const HttpResponse &response)
{
    const std::string *value = response.findHeader("Retry-After");
    if (!value || value->empty())
        return -1;
    int seconds = 0;
    for (const char c : *value) {
        if (c < '0' || c > '9')
            return -1; // HTTP-date form (or garbage): unsupported
        if (seconds >
            (std::numeric_limits<int>::max() - (c - '0')) / 10)
            return -1;
        seconds = seconds * 10 + (c - '0');
    }
    return seconds;
}

// ------------------------------------------------------------- parse

HttpParser::Status
HttpParser::fail(int status, std::string message)
{
    error_status_ = status;
    error_message_ = std::move(message);
    return Status::Error;
}

void
HttpParser::reset()
{
    error_status_ = 0;
    error_message_.clear();
}

HttpParser::Status
HttpParser::frame(std::string *buffer, std::string_view kind,
                  const std::function<Status(std::string_view)> &start_line,
                  std::vector<HttpHeader> *headers, std::string *body)
{
    if (error_status_ != 0)
        return Status::Error;

    // Until its terminator arrives the header section is at least the
    // buffer less a partial terminator, so the limit trips at the same
    // byte however the peer splits its writes.
    const std::string_view text(*buffer);
    const size_t head_end = text.find("\r\n\r\n");
    const size_t head_bytes = head_end != std::string_view::npos
                                  ? head_end
                                  : std::max<size_t>(text.size(), 3) - 3;
    if (limits_.max_header_bytes != 0 &&
        head_bytes > limits_.max_header_bytes) {
        // A server's 431 names no kind; a client's names the response.
        std::string message(kind == "response" ? "response " : "");
        message += "header section exceeds the " +
                   std::to_string(limits_.max_header_bytes) +
                   "-byte limit";
        return fail(431, std::move(message));
    }
    if (head_end == std::string_view::npos)
        return Status::NeedMore;

    const size_t line_end = text.find("\r\n");
    if (start_line(text.substr(0, line_end)) == Status::Error)
        return Status::Error;
    if (!parseHeaderLines(text, line_end + 2, head_end, headers))
        return fail(400, "malformed header field");

    // A chunked or ambiguously framed message must fail cleanly, not
    // desync the connection by mis-reading where the next one starts.
    if (findHeaderIn(*headers, "Transfer-Encoding") != nullptr)
        return fail(501, "transfer encodings are not supported; "
                         "use Content-Length framing");
    // Conflicting duplicates would let two parties frame the message
    // differently (request smuggling); reject them outright
    // (RFC 9112 §6.2).
    if (std::count_if(headers->begin(), headers->end(),
                      [](const HttpHeader &h) {
                          return iequals(h.name, "Content-Length");
                      }) > 1)
        return fail(400, "duplicate Content-Length");

    // Framing decides where the next pipelined message starts, so an
    // unparseable or overflowing length must be an error, never a
    // best-effort value.
    size_t content_length = 0;
    if (const std::string *cl = findHeaderIn(*headers, "Content-Length")) {
        const std::string_view digits = trim(*cl);
        if (digits.empty())
            return fail(400, "empty Content-Length");
        for (const char c : digits) {
            if (c < '0' || c > '9')
                return fail(400, "malformed Content-Length");
            if (content_length >
                (std::numeric_limits<size_t>::max() - 9) / 10)
                return fail(400, "Content-Length out of range");
            content_length = content_length * 10 +
                             static_cast<size_t>(c - '0');
            if (limits_.max_body_bytes != 0 &&
                content_length > limits_.max_body_bytes) {
                std::string message(kind);
                message += " body exceeds the " +
                           std::to_string(limits_.max_body_bytes) +
                           "-byte limit";
                return fail(413, std::move(message));
            }
        }
    }

    const size_t total = head_end + 4 + content_length;
    if (buffer->size() < total)
        return Status::NeedMore;

    *body = buffer->substr(head_end + 4, content_length);
    buffer->erase(0, total);
    return Status::Complete;
}

HttpParser::Status
HttpParser::parse(std::string *buffer, HttpRequest *out)
{
    HttpRequest request;
    const auto request_line = [&](std::string_view line) {
        // method SP target SP version
        const size_t sp1 = line.find(' ');
        const size_t sp2 = sp1 == std::string_view::npos
                               ? sp1
                               : line.find(' ', sp1 + 1);
        if (sp1 == std::string_view::npos ||
            sp2 == std::string_view::npos || sp1 == 0 ||
            sp2 == sp1 + 1 || sp2 + 1 >= line.size() ||
            line.find(' ', sp2 + 1) != std::string_view::npos)
            return fail(400, "malformed request line");
        const std::string_view method = line.substr(0, sp1);
        const std::string_view target =
            line.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::string_view version = line.substr(sp2 + 1);
        if (version != "HTTP/1.1" && version != "HTTP/1.0")
            return fail(505, "unsupported protocol version");
        if (target.front() != '/' &&
            !(method == "OPTIONS" && target == "*"))
            return fail(400, "request target must be in origin form");
        request.method = std::string(method);
        request.target = std::string(target);
        request.version = std::string(version);
        return Status::Complete;
    };
    const Status status = frame(buffer, "request", request_line,
                                &request.headers, &request.body);
    if (status != Status::Complete)
        return status;
    request.keep_alive = keepAliveFor(request.version,
                                      request.findHeader("Connection"));
    *out = std::move(request);
    return Status::Complete;
}

HttpParser::Status
HttpParser::parse(std::string *buffer, HttpResponse *out)
{
    HttpResponse response;
    std::string version;
    const auto status_line = [&](std::string_view line) {
        // version SP code [SP reason]
        const size_t sp1 = line.find(' ');
        if (sp1 == std::string_view::npos || !line.starts_with("HTTP/"))
            return fail(400, "malformed status line");
        // Up to the next space, or to the end when there is no reason.
        const size_t sp2 = line.find(' ', sp1 + 1);
        const std::string_view code = line.substr(sp1 + 1, sp2 - sp1 - 1);
        // Three digits from 100 up (RFC 9110 §15), so the code
        // re-serializes to the same status line.
        if (code.size() != 3 || code[0] == '0')
            return fail(400, "malformed status code");
        response.status = 0;
        for (const char c : code) {
            if (c < '0' || c > '9')
                return fail(400, "malformed status code");
            response.status = response.status * 10 + (c - '0');
        }
        version = std::string(line.substr(0, sp1));
        return Status::Complete;
    };
    const Status status = frame(buffer, "response", status_line,
                                &response.headers, &response.body);
    if (status != Status::Complete)
        return status;
    const std::string *ct = response.findHeader("Content-Type");
    response.content_type = ct ? *ct : std::string();
    response.close =
        !keepAliveFor(version, response.findHeader("Connection"));
    *out = std::move(response);
    return Status::Complete;
}

} // namespace net
} // namespace vtrain
