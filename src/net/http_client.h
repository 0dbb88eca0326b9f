/**
 * @file
 * Small blocking HTTP/1.1 client with keep-alive reuse.
 *
 * Just enough client for the serve layer's RPC surface and its tests:
 * one connection per client, reused across requests until the server
 * answers Connection: close (an idle keep-alive connection the server
 * dropped is transparently re-dialed once).  Blocking sockets with a
 * configurable timeout keep the implementation tiny; concurrency
 * comes from using one HttpClient per thread, exactly like one
 * connection per in-flight request.
 */
#ifndef VTRAIN_NET_HTTP_CLIENT_H
#define VTRAIN_NET_HTTP_CLIENT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "net/fault_injection.h"
#include "net/http.h"
#include "net/socket.h"

namespace vtrain {
namespace net {

/** Why a request failed, in terms a retry policy can act on. */
enum class ClientErrorKind {
    None,           //!< no failure
    ConnectRefused, //!< nothing listening (fail over, don't wait)
    ConnectFailed,  //!< dial failed or timed out
    Timeout,        //!< deadline expired mid-request (peer may still
                    //!< be computing; re-sending repeats the work)
    Closed,         //!< connection died before a full response
    SendFailed,     //!< the request bytes never got out
    Protocol        //!< unparsable response (do not retry)
};

/** A typed request failure plus its human-readable detail. */
struct ClientError {
    ClientErrorKind kind = ClientErrorKind::None;
    std::string message;
};

/** A blocking single-connection HTTP/1.1 client. */
class HttpClient
{
  public:
    struct Options {
        std::string host = "127.0.0.1";
        uint16_t port = 0;

        /** Per-operation socket timeout (0 = wait forever). */
        int timeout_ms = 20000;

        /** Response size limits. */
        HttpLimits limits;

        /** TCP connect deadline (0 = wait forever). */
        int connect_timeout_ms = 10000;

        /**
         * Total per-request deadline covering connect, send and the
         * whole response (0 = per-operation timeouts only).  On
         * expiry request() fails with ClientErrorKind::Timeout
         * instead of blocking for however long the server computes.
         */
        int request_timeout_ms = 0;

        /**
         * Optional fault-injection layer (tests only).  Consulted per
         * request with faultKey(host, port, target) as the decision
         * key, so one rule can target a single backend.  Must outlive
         * the client.
         */
        FaultInjector *fault_injector = nullptr;

        /**
         * Extra headers appended to every request — e.g. the
         * X-Api-Key identifying this client's tenant to admission
         * control.
         */
        std::vector<HttpHeader> headers;
    };

    explicit HttpClient(Options options);
    /** A client with every other Options field at its default. */
    HttpClient(const std::string &host, uint16_t port)
        : HttpClient([&] {
              Options options;
              options.host = host;
              options.port = port;
              return options;
          }())
    {
    }

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Issues one request and blocks for the response.  Returns false
     * and sets *error on connect/send/receive/parse failure; HTTP
     * error statuses (4xx/5xx) are successful transfers and land in
     * *out like any other response.
     */
    bool request(std::string_view method, std::string_view target,
                 std::string_view body, HttpResponse *out,
                 std::string *error);

    /**
     * request() with a typed error, so callers can distinguish "fail
     * over now" (ConnectRefused) from "maybe retry" (Timeout, Closed)
     * from "give up" (Protocol).  `request_timeout_ms` >= 0 overrides
     * Options::request_timeout_ms for this one request (0 = no
     * deadline), letting a caller propagate a shrinking deadline
     * without rebuilding the client.
     */
    bool request(std::string_view method, std::string_view target,
                 std::string_view body, HttpResponse *out,
                 ClientError *error, int request_timeout_ms = -1);

    bool get(std::string_view target, HttpResponse *out,
             std::string *error)
    {
        return request("GET", target, "", out, error);
    }

    bool post(std::string_view target, std::string_view body,
              HttpResponse *out, std::string *error)
    {
        return request("POST", target, body, out, error);
    }

    /** Drops the current connection (the next request re-dials). */
    void disconnect();

    bool connected() const { return sock_.valid(); }

    /** TCP connects performed so far (tests assert keep-alive reuse). */
    uint64_t connectsMade() const { return connects_; }

  private:
    /** Monotonic-clock deadline of one request (0 = none). */
    struct Deadline;

    bool ensureConnected(const Deadline &deadline, ClientError *error);

    /**
     * One send + receive on the current connection.  On failure,
     * *retry_safe reports whether re-sending on a fresh connection
     * cannot double-execute the request (the connection died with
     * zero response bytes; not a timeout).
     */
    bool roundTrip(const std::string &wire, const Deadline &deadline,
                   HttpResponse *out, ClientError *error,
                   bool *retry_safe);

    /** The socket timeout for the next op under `deadline`. */
    bool applyOpTimeout(const Deadline &deadline, ClientError *error);

    Options options_;
    Socket sock_;
    std::string in_buf_;
    uint64_t connects_ = 0;
};

} // namespace net
} // namespace vtrain

#endif // VTRAIN_NET_HTTP_CLIENT_H
