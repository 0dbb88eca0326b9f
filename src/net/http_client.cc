#include "net/http_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace vtrain {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

bool
clientFail(ClientError *error, ClientErrorKind kind, std::string message)
{
    if (error) {
        error->kind = kind;
        error->message = std::move(message);
    }
    return false;
}

} // namespace

/** Monotonic-clock deadline of one request (none when unset). */
struct HttpClient::Deadline {
    bool active = false;
    Clock::time_point at{};

    static Deadline fromNow(int timeout_ms)
    {
        Deadline d;
        if (timeout_ms > 0) {
            d.active = true;
            d.at = Clock::now() + std::chrono::milliseconds(timeout_ms);
        }
        return d;
    }

    /** Whole milliseconds left, rounded up; 0 = expired. */
    int remainingMs() const
    {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            at - Clock::now());
        return static_cast<int>(std::max<int64_t>(left.count(), 0));
    }
};

HttpClient::HttpClient(Options options) : options_(std::move(options))
{
}

void
HttpClient::disconnect()
{
    sock_.close();
    in_buf_.clear();
}

bool
HttpClient::ensureConnected(const Deadline &deadline, ClientError *error)
{
    if (sock_.valid())
        return true;
    int connect_timeout = options_.connect_timeout_ms;
    if (deadline.active) {
        const int remaining = deadline.remainingMs();
        if (remaining <= 0)
            return clientFail(error, ClientErrorKind::Timeout,
                              "request deadline expired before "
                              "connecting");
        connect_timeout = connect_timeout > 0
                              ? std::min(connect_timeout, remaining)
                              : remaining;
    }
    std::string connect_error;
    ConnectOutcome outcome = ConnectOutcome::Error;
    Socket sock = connectTcp(options_.host, options_.port,
                             connect_timeout, &outcome, &connect_error);
    if (!sock.valid()) {
        switch (outcome) {
          case ConnectOutcome::Refused:
            return clientFail(error, ClientErrorKind::ConnectRefused,
                              std::move(connect_error));
          case ConnectOutcome::TimedOut:
            // The *request* deadline expiring during the dial is a
            // request timeout; a dial slower than connect_timeout_ms
            // alone is a connect failure.
            if (deadline.active && deadline.remainingMs() <= 0)
                return clientFail(error, ClientErrorKind::Timeout,
                                  std::move(connect_error));
            return clientFail(error, ClientErrorKind::ConnectFailed,
                              std::move(connect_error));
          default:
            return clientFail(error, ClientErrorKind::ConnectFailed,
                              std::move(connect_error));
        }
    }
    sock_ = std::move(sock);
    in_buf_.clear();
    ++connects_;
    if (!applyOpTimeout(deadline, error)) {
        disconnect();
        return false;
    }
    return true;
}

bool
HttpClient::applyOpTimeout(const Deadline &deadline, ClientError *error)
{
    int timeout = options_.timeout_ms;
    if (deadline.active) {
        const int remaining = deadline.remainingMs();
        if (remaining <= 0)
            return clientFail(error, ClientErrorKind::Timeout,
                              "request deadline expired");
        timeout = timeout > 0 ? std::min(timeout, remaining)
                              : remaining;
    }
    if (timeout > 0)
        sock_.setTimeouts(timeout);
    return true;
}

bool
HttpClient::roundTrip(const std::string &wire, const Deadline &deadline,
                      HttpResponse *out, ClientError *error,
                      bool *retry_safe)
{
    *retry_safe = false;
    if (!sock_.sendAll(wire.data(), wire.size())) {
        // Nothing came back; the dead-idle-keep-alive signature.
        *retry_safe = true;
        disconnect();
        return clientFail(error, ClientErrorKind::SendFailed,
                          "send failed");
    }
    HttpParser parser(options_.limits);
    bool received_any = false;
    char buf[16384];
    for (;;) {
        const HttpParser::Status status = parser.parse(&in_buf_, out);
        if (status == HttpParser::Status::Complete) {
            if (out->close)
                disconnect();
            return true;
        }
        if (status == HttpParser::Status::Error) {
            disconnect();
            return clientFail(error, ClientErrorKind::Protocol,
                              "bad response: " + parser.errorMessage());
        }
        // Re-arm the op timeout so the whole response — not each
        // recv individually — fits inside the request deadline.
        if (!applyOpTimeout(deadline, error)) {
            disconnect();
            return false;
        }
        size_t n = 0;
        const IoStatus io = sock_.recvSome(buf, sizeof(buf), &n);
        if (io == IoStatus::Ok) {
            in_buf_.append(buf, n);
            received_any = true;
            continue;
        }
        // A resend must not double-execute the request, so it is only
        // safe when the connection died with zero response bytes --
        // the server closed without processing (an idle keep-alive
        // reaped between requests).  A timeout (WouldBlock) means the
        // server may still be computing: never resend.
        *retry_safe = !received_any && io != IoStatus::WouldBlock;
        disconnect();
        if (io == IoStatus::WouldBlock)
            return clientFail(error, ClientErrorKind::Timeout,
                              "timed out awaiting the response");
        return clientFail(error, ClientErrorKind::Closed,
                          io == IoStatus::Eof
                              ? "connection closed before a full "
                                "response"
                              : "receive failed");
    }
}

bool
HttpClient::request(std::string_view method, std::string_view target,
                    std::string_view body, HttpResponse *out,
                    ClientError *error, int request_timeout_ms)
{
    if (options_.fault_injector) {
        const FaultInjector::Decision fault =
            options_.fault_injector->decide(
                faultKey(options_.host, options_.port, target));
        if (fault.latency_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault.latency_ms));
        if (fault.refuse_connect)
            return clientFail(error, ClientErrorKind::ConnectRefused,
                              "injected fault: connection refused");
        if (fault.drop)
            return clientFail(error, ClientErrorKind::Closed,
                              "injected fault: connection closed "
                              "before a full response");
        if (fault.force_status != 0) {
            *out = errorResponse(fault.force_status, "injected fault");
            if (fault.retry_after_s >= 0)
                out->headers.push_back(
                    {"Retry-After",
                     std::to_string(fault.retry_after_s)});
            return true;
        }
    }
    HttpRequest req;
    req.method = std::string(method);
    req.target = std::string(target);
    req.headers.push_back(
        {"Host",
         options_.host + ":" + std::to_string(options_.port)});
    for (const HttpHeader &header : options_.headers)
        req.headers.push_back(header);
    if (!body.empty())
        req.headers.push_back({"Content-Type", "application/json"});
    req.body = std::string(body);
    const std::string wire = serializeRequest(req);
    const Deadline deadline = Deadline::fromNow(
        request_timeout_ms >= 0 ? request_timeout_ms
                                : options_.request_timeout_ms);

    const bool was_connected = sock_.valid();
    if (!ensureConnected(deadline, error))
        return false;
    if (!applyOpTimeout(deadline, error)) {
        disconnect();
        return false;
    }
    bool retry_safe = false;
    if (roundTrip(wire, deadline, out, error, &retry_safe))
        return true;
    // A reused keep-alive connection may have been idle-closed by the
    // server between requests; re-dial once on a fresh socket -- but
    // only when the failure proves the server never answered.
    if (!was_connected || !retry_safe)
        return false;
    if (!ensureConnected(deadline, error))
        return false;
    return roundTrip(wire, deadline, out, error, &retry_safe);
}

bool
HttpClient::request(std::string_view method, std::string_view target,
                    std::string_view body, HttpResponse *out,
                    std::string *error)
{
    ClientError typed;
    if (request(method, target, body, out, &typed))
        return true;
    if (error)
        *error = std::move(typed.message);
    return false;
}

} // namespace net
} // namespace vtrain
