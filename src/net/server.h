/**
 * @file
 * Epoll-based HTTP/1.1 server for the simulation service.
 *
 * One event-loop thread multiplexes the listener and every client
 * connection (level-triggered epoll, non-blocking sockets), so many
 * concurrent keep-alive connections cost one thread total.  Handler
 * execution is pluggable through an Executor: the HTTP frontend passes
 * the SimService's ThreadPool, so request handling shares the
 * process's one worker pool instead of spawning a second one.
 *
 * Per connection the server parses at most one request at a time:
 * while a request is being handled, reads are paused; once the
 * response is written, buffered pipelined requests are served next.
 * This keeps responses in request order (RFC 9112 §9.3) with no
 * per-connection queue.  Keep-alive follows the message's HTTP
 * version and Connection header; malformed or oversized requests are
 * answered with a structured JSON error and the connection is closed.
 */
#ifndef VTRAIN_NET_SERVER_H
#define VTRAIN_NET_SERVER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/fault_injection.h"
#include "net/http.h"
#include "net/socket.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {
namespace net {

/** Event-loop and dispatch counters. */
struct HttpServerStats {
    uint64_t connections_accepted = 0;
    uint64_t connections_open = 0;
    uint64_t requests = 0;     //!< complete requests dispatched
    uint64_t responses = 0;    //!< responses fully written
    uint64_t parse_errors = 0; //!< malformed requests answered 4xx/5xx
};

/** A minimal epoll HTTP server; see the file comment for the model. */
class HttpServer
{
  public:
    /** Produces the response for one parsed request. */
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    /** Runs a handler invocation somewhere (e.g. a thread pool). */
    using Executor = std::function<void(std::function<void()>)>;

    struct Options {
        std::string host = "127.0.0.1";

        /** Port to bind; 0 picks an ephemeral port (see port()). */
        uint16_t port = 0;

        /** Parser limits, enforced per connection. */
        HttpLimits limits;

        /** Where handlers run (required). */
        Executor executor;

        /**
         * Maps a request to the `route` label of
         * vtrain_http_request_seconds (required).  Return a value from
         * a fixed set (e.g. known paths, "(unmatched)" otherwise) to
         * bound series cardinality.
         */
        std::function<std::string(const HttpRequest &)> route_label;

        /**
         * Optional fault-injection layer (tests only).  Consulted per
         * request with the request target as the decision key; can
         * delay the handler, force an error status, or truncate/drop
         * the response mid-body.  Must outlive the server.
         */
        FaultInjector *fault_injector = nullptr;
    };

    HttpServer(Options options, Handler handler);

    /** Stops the loop and waits for in-flight handlers. */
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Binds the listener and starts the event-loop thread.  Returns
     * false and sets *error when the socket setup fails.
     */
    bool start(std::string *error);

    /**
     * Closes the listener and every connection, then joins the loop
     * thread and waits for handlers still running on the executor.
     * Idempotent.
     */
    void stop();

    /**
     * Stops accepting new connections (the listener leaves the epoll
     * set) while existing connections keep being served.  Idempotent;
     * drain() implies it.
     */
    void beginDrain();

    /**
     * Graceful shutdown: stops accepting, waits up to `deadline_ms`
     * for every in-flight request to finish and flush, then stop()s.
     * Returns true when the server went idle before the deadline
     * (false = the deadline cut connections off mid-work).  Records
     * the drain duration on vtrain_http_drain_seconds.
     */
    bool drain(int deadline_ms);

    /** Whether beginDrain()/drain() has been requested. */
    bool draining() const { return draining_.load(); }

    bool running() const { return running_.load(); }

    /** The bound port (the ephemeral one when Options::port was 0). */
    uint16_t port() const { return port_; }

    const std::string &host() const { return options_.host; }

    HttpServerStats stats() const;

  private:
    /** Per-connection state; owned and touched by the loop thread. */
    struct Conn {
        uint64_t id = 0;
        Socket sock;
        std::string in_buf;
        std::string out_buf;
        size_t out_off = 0;
        HttpParser parser;
        bool in_flight = false;   //!< a handler owns the next response
        bool read_closed = false; //!< peer sent EOF (may still read
                                  //!< our response)
        bool close_after_write = false;
        bool defunct = false;     //!< closed; awaiting table removal
        uint32_t interest = 0;    //!< currently registered epoll mask
    };

    /** A handler's finished response on its way back to the loop. */
    struct Completion {
        uint64_t conn_id = 0;
        std::string bytes;
        bool keep_alive = true;
    };

    void runLoop();
    /** While draining: stops the listener, flags loop idleness. */
    void checkDrainIdle() EXCLUDES(completions_mutex_, inflight_mutex_);
    void acceptPending();
    void handleConnEvent(Conn *conn, uint32_t events);
    void readFromConn(Conn *conn);
    void tryParse(Conn *conn);
    void dispatch(Conn *conn, HttpRequest request);
    void flushConn(Conn *conn);
    void queueResponse(Conn *conn, const HttpResponse &response,
                       bool keep_alive);
    void drainCompletions() EXCLUDES(completions_mutex_);
    void closeConn(Conn *conn);
    /** Erases `id` from the table once its connection is defunct. */
    void reap(uint64_t id);
    void updateInterest(Conn *conn);
    void wake();
    void stopFds();

    /** Called from executor threads when a handler finishes. */
    void complete(uint64_t conn_id, std::string bytes, bool keep_alive)
        EXCLUDES(completions_mutex_, inflight_mutex_);

    Options options_;
    Handler handler_;

    TcpListener listener_;
    uint16_t port_ = 0;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    std::thread loop_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> drain_idle_{false};
    bool listener_removed_ = false; //!< loop-thread state

    // Loop-thread state: connection table keyed by id (epoll events
    // carry the id, so a completion for a dead connection is dropped
    // instead of dereferencing freed memory).
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    uint64_t next_conn_id_ = 1;

    util::Mutex completions_mutex_;
    std::deque<Completion> completions_ GUARDED_BY(completions_mutex_);

    // Handlers running (or queued) on the executor; the destructor
    // waits for zero so tasks never outlive the server they call into.
    util::Mutex inflight_mutex_;
    util::CondVar inflight_cv_;
    size_t inflight_handlers_ GUARDED_BY(inflight_mutex_) = 0;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> open_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> responses_{0};
    std::atomic<uint64_t> parse_errors_{0};

    // Global-registry metrics (resolved once in the constructor; the
    // labeled latency histogram is looked up per response because its
    // series depends on route and status).
    util::Counter *requests_total_ = nullptr;
    util::Counter *responses_total_ = nullptr;
    util::Counter *parse_errors_total_ = nullptr;
    util::Counter *connections_accepted_total_ = nullptr;
    util::Counter *bytes_read_total_ = nullptr;
    util::Counter *bytes_written_total_ = nullptr;
    util::Gauge *connections_open_gauge_ = nullptr;
    util::Gauge *inflight_requests_gauge_ = nullptr;
    util::Histogram *drain_seconds_ = nullptr;
};

} // namespace net
} // namespace vtrain

#endif // VTRAIN_NET_SERVER_H
