#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace vtrain {
namespace net {

namespace {

/** epoll user-data ids for the two non-connection descriptors. */
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = UINT64_MAX;

} // namespace

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler))
{
    VTRAIN_CHECK(handler_ != nullptr && options_.executor != nullptr &&
                     options_.route_label != nullptr,
                 "HttpServer needs a handler, an executor and a route "
                 "labeller");

    util::MetricRegistry &registry = util::MetricRegistry::global();
    requests_total_ = registry.counter(
        "vtrain_http_requests_total", {},
        "Complete requests dispatched to a handler.");
    responses_total_ = registry.counter(
        "vtrain_http_responses_total", {},
        "Responses fully written to the socket.");
    parse_errors_total_ = registry.counter(
        "vtrain_http_parse_errors_total", {},
        "Malformed or oversized requests answered with an error.");
    connections_accepted_total_ = registry.counter(
        "vtrain_http_connections_accepted_total", {},
        "Client connections accepted since start.");
    bytes_read_total_ = registry.counter(
        "vtrain_http_bytes_read_total", {},
        "Bytes read from client sockets.");
    bytes_written_total_ = registry.counter(
        "vtrain_http_bytes_written_total", {},
        "Bytes written to client sockets.");
    connections_open_gauge_ = registry.gauge(
        "vtrain_http_connections_open", {},
        "Client connections currently open.");
    inflight_requests_gauge_ = registry.gauge(
        "vtrain_http_inflight_requests", {},
        "Requests dispatched and not yet completed.");
    registry.declareHistogram(
        "vtrain_http_request_seconds",
        "Handler latency (dispatch to completion, including executor "
        "queueing) by route and status.");
    drain_seconds_ = registry.histogram(
        "vtrain_http_drain_seconds", {},
        "Graceful-drain duration (drain() call to idle or deadline).");
}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(std::string *error)
{
    VTRAIN_CHECK(!running_.load(), "HttpServer is already running");
    if (!listener_.listen(options_.host, options_.port, error))
        return false;
    port_ = listener_.port();

    epoll_fd_ = ::epoll_create1(0);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
        if (error)
            *error = std::string("epoll/eventfd setup: ") +
                     std::strerror(errno);
        stopFds();
        return false;
    }

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
    ev.data.u64 = kWakeId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

    stop_requested_.store(false);
    draining_.store(false);
    drain_idle_.store(false);
    listener_removed_ = false;
    running_.store(true);
    loop_ = std::thread([this] { runLoop(); });
    return true;
}

void
HttpServer::beginDrain()
{
    if (!running_.load() || draining_.exchange(true))
        return;
    wake(); // the loop thread removes the listener from the epoll set
}

bool
HttpServer::drain(int deadline_ms)
{
    if (!running_.load())
        return true;
    const uint64_t start_ns = util::monotonicNanos();
    const uint64_t deadline_ns =
        start_ns + static_cast<uint64_t>(deadline_ms < 0 ? 0
                                                         : deadline_ms) *
                       1000000ull;
    beginDrain();
    // The loop thread flags idleness (no in-flight handler, every
    // response flushed); poll it out here since only stop() may join.
    bool idle = drain_idle_.load();
    while (!idle && util::monotonicNanos() < deadline_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        idle = drain_idle_.load();
    }
    stop();
    drain_seconds_->record(
        static_cast<double>(util::monotonicNanos() - start_ns) * 1e-9);
    return idle;
}

void
HttpServer::stop()
{
    if (!running_.exchange(false))
        return;
    stop_requested_.store(true);
    wake();
    if (loop_.joinable())
        loop_.join();

    // Handlers still running on the executor hold `this`; wait them
    // out before tearing down the descriptors they wake.
    {
        util::MutexLock lock(inflight_mutex_);
        while (inflight_handlers_ != 0)
            inflight_cv_.wait(inflight_mutex_);
    }
    stopFds();
    {
        util::MutexLock lock(completions_mutex_);
        completions_.clear();
    }
}

void
HttpServer::stopFds()
{
    listener_.close();
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
        epoll_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
        wake_fd_ = -1;
    }
}

void
HttpServer::wake()
{
    const uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore short/EAGAIN.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
}

HttpServerStats
HttpServer::stats() const
{
    HttpServerStats stats;
    stats.connections_accepted = accepted_.load();
    stats.connections_open = open_.load();
    stats.requests = requests_.load();
    stats.responses = responses_.load();
    stats.parse_errors = parse_errors_.load();
    return stats;
}

// ------------------------------------------------------------ the loop

void
HttpServer::runLoop()
{
    std::array<epoll_event, 64> events;
    while (!stop_requested_.load()) {
        // While draining, poll: complete() wakes the loop before it
        // decrements inflight_handlers_, so the loop's idle check can
        // run one decrement early and no further event would ever
        // re-run it.  A bounded timeout turns that lost wakeup into a
        // few milliseconds of drain latency instead of a hang.
        const int timeout_ms = draining_.load() ? 5 : -1;
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const uint64_t id = events[i].data.u64;
            if (id == kListenerId) {
                acceptPending();
            } else if (id == kWakeId) {
                uint64_t counter = 0;
                [[maybe_unused]] const ssize_t r = ::read(
                    wake_fd_, &counter, sizeof(counter));
            } else {
                auto it = conns_.find(id);
                if (it == conns_.end())
                    continue;
                handleConnEvent(it->second.get(),
                                events[i].events);
                reap(id);
            }
        }
        drainCompletions();
        if (draining_.load())
            checkDrainIdle();
        if (stop_requested_.load())
            break;
    }
    // Drop every connection on the way out; in-flight handlers will
    // complete() into the (now unread) queue and be discarded.
    for (auto &[id, conn] : conns_) {
        if (!conn->defunct) {
            conn->sock.close();
            open_.fetch_sub(1);
            connections_open_gauge_->sub(1);
        }
    }
    conns_.clear();
}

void
HttpServer::checkDrainIdle()
{
    if (!listener_removed_) {
        // Stop accepting outright: the socket is closed, not just
        // deregistered, so late dials are refused instead of piling
        // into the kernel backlog only to be reset at stop().
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        listener_.close();
        listener_removed_ = true;
    }
    // Idle means every dispatched handler has completed (checked
    // first: handlers enqueue completions before decrementing), every
    // completion was drained into its connection, and every response
    // has been flushed to the socket.
    {
        util::MutexLock lock(inflight_mutex_);
        if (inflight_handlers_ != 0)
            return;
    }
    {
        util::MutexLock lock(completions_mutex_);
        if (!completions_.empty())
            return;
    }
    for (const auto &[id, conn] : conns_) {
        if (!conn->defunct &&
            (conn->in_flight || !conn->out_buf.empty()))
            return;
    }
    drain_idle_.store(true);
}

void
HttpServer::acceptPending()
{
    for (;;) {
        Socket sock;
        const IoStatus status = listener_.accept(&sock);
        if (status != IoStatus::Ok)
            return;
        auto conn = std::make_unique<Conn>();
        conn->id = next_conn_id_++;
        conn->sock = std::move(sock);
        conn->parser = HttpParser(options_.limits);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->sock.fd(),
                        &ev) != 0)
            continue; // conn (and its socket) die here
        conn->interest = EPOLLIN;
        accepted_.fetch_add(1);
        open_.fetch_add(1);
        connections_accepted_total_->inc();
        connections_open_gauge_->add(1);
        conns_.emplace(conn->id, std::move(conn));
    }
}

void
HttpServer::handleConnEvent(Conn *conn, uint32_t events)
{
    if (conn->defunct)
        return;
    // EPOLLHUP means both halves are closed (a half-closed peer shows
    // up as EPOLLIN + EOF instead): no response can ever be
    // delivered, so drop the connection even mid-handler -- its
    // completion will find the id gone and be discarded.  Also vital
    // for liveness: HUP cannot be masked out, so a lingering
    // connection would wake the level-triggered loop forever.
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
        closeConn(conn);
        return;
    }
    if ((events & EPOLLOUT) != 0)
        flushConn(conn);
    if (!conn->defunct && (events & EPOLLIN) != 0)
        readFromConn(conn);
    if (!conn->defunct)
        updateInterest(conn);
}

void
HttpServer::readFromConn(Conn *conn)
{
    char buf[16384];
    for (;;) {
        size_t n = 0;
        const IoStatus status =
            conn->sock.recvSome(buf, sizeof(buf), &n);
        if (status == IoStatus::Ok) {
            conn->in_buf.append(buf, n);
            bytes_read_total_->inc(n);
            continue;
        }
        if (status == IoStatus::WouldBlock)
            break;
        if (status == IoStatus::Eof) {
            // The peer may have shut down its send side and still be
            // reading (request + shutdown(SHUT_WR) is legal); finish
            // what is buffered, then close.
            conn->read_closed = true;
            break;
        }
        closeConn(conn);
        return;
    }
    tryParse(conn);
    if (!conn->defunct && conn->read_closed && !conn->in_flight &&
        conn->out_buf.empty())
        closeConn(conn);
}

void
HttpServer::tryParse(Conn *conn)
{
    // One request at a time per connection: responses then come back
    // in request order with no reordering bookkeeping, and a
    // pipelining client simply has its followers parsed right after
    // the previous response is flushed.
    while (!conn->defunct && !conn->in_flight &&
           conn->out_buf.empty()) {
        HttpRequest request;
        const HttpParser::Status status =
            conn->parser.parse(&conn->in_buf, &request);
        if (status == HttpParser::Status::Complete) {
            dispatch(conn, std::move(request));
        } else if (status == HttpParser::Status::Error) {
            parse_errors_.fetch_add(1);
            parse_errors_total_->inc();
            queueResponse(conn,
                          errorResponse(conn->parser.errorStatus(),
                                        conn->parser.errorMessage()),
                          /*keep_alive=*/false);
            return;
        } else {
            return; // NeedMore
        }
    }
}

void
HttpServer::dispatch(Conn *conn, HttpRequest request)
{
    requests_.fetch_add(1);
    requests_total_->inc();
    inflight_requests_gauge_->add(1);
    conn->in_flight = true;
    const bool keep_alive = request.keep_alive && !conn->read_closed;
    std::string route = options_.route_label(request);
    {
        util::MutexLock lock(inflight_mutex_);
        ++inflight_handlers_;
    }
    FaultInjector::Decision fault;
    if (options_.fault_injector)
        fault = options_.fault_injector->decide(request.target);
    auto task = [this, id = conn->id, keep_alive, fault,
                 route = std::move(route),
                 start_ns = util::monotonicNanos(),
                 req = std::move(request)]() mutable {
        if (fault.latency_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault.latency_ms));
        HttpResponse response;
        if (fault.force_status != 0) {
            response =
                errorResponse(fault.force_status, "injected fault");
            if (fault.retry_after_s >= 0)
                response.headers.push_back(
                    {"Retry-After",
                     std::to_string(fault.retry_after_s)});
        } else {
            try {
                response = handler_(req);
            } catch (const std::exception &e) {
                response = errorResponse(500, e.what());
            } catch (...) {
                response =
                    errorResponse(500, "unknown handler failure");
            }
        }
        const double seconds =
            static_cast<double>(util::monotonicNanos() - start_ns) *
            1e-9;
        util::MetricRegistry::global()
            .histogram("vtrain_http_request_seconds",
                       {{"route", std::move(route)},
                        {"status", std::to_string(response.status)}})
            ->record(seconds);
        inflight_requests_gauge_->sub(1);
        std::string bytes = serializeResponse(response, keep_alive);
        bool alive = keep_alive;
        if (fault.drop) {
            // Simulate a mid-body reset: at most drop_after_bytes of
            // the response reach the wire, then the connection dies
            // (zero bytes = dropped without answering at all).
            bytes.resize(
                std::min(bytes.size(), fault.drop_after_bytes));
            alive = false;
        }
        complete(id, std::move(bytes), alive);
    };
    options_.executor(std::move(task));
}

void
HttpServer::complete(uint64_t conn_id, std::string bytes,
                     bool keep_alive)
{
    {
        util::MutexLock lock(completions_mutex_);
        completions_.push_back(
            Completion{conn_id, std::move(bytes), keep_alive});
    }
    wake();
    // Last: once the count hits zero the destructor may tear down the
    // descriptors wake() just used -- and the condition variable
    // itself, so the notify must happen under the mutex (a waiter
    // cannot re-check the predicate and return until we release it).
    {
        util::MutexLock lock(inflight_mutex_);
        --inflight_handlers_;
        inflight_cv_.notifyAll();
    }
}

void
HttpServer::drainCompletions()
{
    std::deque<Completion> batch;
    {
        util::MutexLock lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (Completion &completion : batch) {
        auto it = conns_.find(completion.conn_id);
        if (it == conns_.end())
            continue; // the peer went away mid-compute
        Conn *conn = it->second.get();
        if (conn->defunct)
            continue;
        conn->in_flight = false;
        if (completion.bytes.empty() && !completion.keep_alive) {
            // A fault-injected "drop without answering": flushConn
            // treats an empty buffer as nothing-pending, so close
            // directly.
            closeConn(conn);
            reap(completion.conn_id);
            continue;
        }
        conn->out_buf = std::move(completion.bytes);
        conn->out_off = 0;
        conn->close_after_write = !completion.keep_alive;
        flushConn(conn);
        if (!conn->defunct)
            updateInterest(conn);
        reap(completion.conn_id);
    }
}

void
HttpServer::queueResponse(Conn *conn, const HttpResponse &response,
                          bool keep_alive)
{
    conn->out_buf = serializeResponse(response, keep_alive);
    conn->out_off = 0;
    conn->close_after_write = !keep_alive;
    flushConn(conn);
}

void
HttpServer::flushConn(Conn *conn)
{
    while (conn->out_off < conn->out_buf.size()) {
        size_t n = 0;
        const IoStatus status = conn->sock.sendSome(
            conn->out_buf.data() + conn->out_off,
            conn->out_buf.size() - conn->out_off, &n);
        if (status == IoStatus::Ok) {
            conn->out_off += n;
            bytes_written_total_->inc(n);
            continue;
        }
        if (status == IoStatus::WouldBlock)
            return; // EPOLLOUT will resume the flush
        closeConn(conn);
        return;
    }
    if (conn->out_buf.empty())
        return;
    responses_.fetch_add(1);
    responses_total_->inc();
    conn->out_buf.clear();
    conn->out_off = 0;
    if (conn->close_after_write || conn->read_closed) {
        closeConn(conn);
        return;
    }
    // The response is on the wire; serve the next pipelined request
    // if the client already sent one.
    tryParse(conn);
}

void
HttpServer::updateInterest(Conn *conn)
{
    uint32_t interest = 0;
    if (!conn->in_flight && !conn->read_closed &&
        conn->out_buf.empty())
        interest |= EPOLLIN;
    if (conn->out_off < conn->out_buf.size())
        interest |= EPOLLOUT;
    if (interest == conn->interest)
        return;
    epoll_event ev{};
    ev.events = interest;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->sock.fd(),
                    &ev) == 0)
        conn->interest = interest;
}

void
HttpServer::closeConn(Conn *conn)
{
    if (conn->defunct)
        return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
    conn->sock.close();
    conn->defunct = true;
    open_.fetch_sub(1);
    connections_open_gauge_->sub(1);
}

void
HttpServer::reap(uint64_t id)
{
    auto it = conns_.find(id);
    if (it != conns_.end() && it->second->defunct)
        conns_.erase(it);
}

} // namespace net
} // namespace vtrain
