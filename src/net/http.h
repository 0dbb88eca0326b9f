/**
 * @file
 * Dependency-free HTTP/1.1 message types, parser and serializers.
 *
 * Just enough of RFC 9112 for the simulation service's RPC surface:
 * Content-Length framed requests and responses (chunked transfer
 * encoding is rejected with 501), case-insensitive header lookup,
 * keep-alive semantics for 1.0 and 1.1, and hard limits on header and
 * body sizes so a misbehaving peer cannot balloon server memory.  One
 * incremental parser reads both directions (requests on the server,
 * responses on the client) under the same framing rules: feed it the
 * connection's receive buffer as bytes arrive and it consumes exactly
 * one complete message off the front when available, leaving
 * pipelined followers in place.
 */
#ifndef VTRAIN_NET_HTTP_H
#define VTRAIN_NET_HTTP_H

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace vtrain {
namespace net {

struct HttpHeader {
    std::string name;
    std::string value;
};

/** One parsed request (server side). */
struct HttpRequest {
    std::string method;  //!< e.g. "GET", "POST"
    std::string target;  //!< origin-form target, e.g. "/v1/evaluate"
    std::string version; //!< "HTTP/1.0" or "HTTP/1.1"
    std::vector<HttpHeader> headers;
    std::string body;

    /** Whether the connection should stay open after the response. */
    bool keep_alive = true;

    /** @return the target without its query string. */
    std::string_view path() const;

    /** Case-insensitive header lookup; nullptr when absent. */
    const std::string *findHeader(std::string_view name) const;
};

/** One response under construction (server) or parsed (client). */
struct HttpResponse {
    int status = 200;
    /** Sent as Content-Type unless empty; parsed from that header
     *  ("" when absent). */
    std::string content_type = "application/json";
    std::vector<HttpHeader> headers; //!< extra headers (serializer
                                     //!< adds framing ones itself)
    std::string body;

    /** Parsed responses: whether the server will close afterwards. */
    bool close = false;

    const std::string *findHeader(std::string_view name) const;
};

/** @return the canonical reason phrase ("OK", "Not Found", ...). */
std::string_view statusReason(int status);

/**
 * Serializes a response with Content-Length framing and an explicit
 * Connection header matching `keep_alive`.
 */
std::string serializeResponse(const HttpResponse &response,
                              bool keep_alive);

/** Serializes a request with Content-Length framing (client side). */
std::string serializeRequest(const HttpRequest &request);

/** The service's structured JSON error payload for `status`. */
std::string jsonErrorBody(int status, std::string_view message);

/** An application/json error response carrying jsonErrorBody(). */
HttpResponse errorResponse(int status, std::string_view message);

/**
 * Parses a delta-seconds Retry-After header off a response; returns
 * -1 when the header is absent or not a non-negative integer (the
 * HTTP-date form is deliberately unsupported — this stack only emits
 * delta-seconds).
 */
int retryAfterSeconds(const HttpResponse &response);

/** Size limits enforced while parsing (0 = unlimited). */
struct HttpLimits {
    size_t max_header_bytes = 16u << 10;
    size_t max_body_bytes = 8u << 20;
};

/** The incremental parser for both directions; one per connection. */
class HttpParser
{
  public:
    enum class Status {
        NeedMore, //!< the buffer does not yet hold a full message
        Complete, //!< *out holds a message; its bytes were consumed
        Error     //!< malformed/oversized; see errorStatus()
    };

    HttpParser() = default;
    explicit HttpParser(HttpLimits limits) : limits_(limits) {}

    /**
     * Attempts to consume one complete message from the front of
     * *buffer, leaving it untouched unless Complete.  After Error a
     * server should answer with errorStatus() and close; the parser
     * stays in the error state until reset().
     */
    Status parse(std::string *buffer, HttpRequest *out);
    Status parse(std::string *buffer, HttpResponse *out);

    /** The HTTP status describing the parse failure (400/413/431/501/505). */
    int errorStatus() const { return error_status_; }
    const std::string &errorMessage() const { return error_message_; }

    void reset();

  private:
    /**
     * The framing both directions share.  `start_line` parses the
     * first line into the caller's message and returns Complete, or
     * returns fail()'s Error; `kind` ("request" or "response") names
     * the message in limit errors.
     */
    Status frame(std::string *buffer, std::string_view kind,
                 const std::function<Status(std::string_view)> &start_line,
                 std::vector<HttpHeader> *headers, std::string *body);

    Status fail(int status, std::string message);

    HttpLimits limits_;
    int error_status_ = 0;
    std::string error_message_;
};

} // namespace net
} // namespace vtrain

#endif // VTRAIN_NET_HTTP_H
