#include "util/trace.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"
#include "util/metrics.h"

namespace vtrain {
namespace util {
namespace {

thread_local TraceCapture *tls_capture = nullptr;

uint64_t nextTraceId()
{
    static std::atomic<uint64_t> next_id{1};
    return next_id.fetch_add(1, std::memory_order_relaxed);
}

void appendEscaped(std::string &out, const std::string &value)
{
    for (char c : value) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void appendDouble(std::string &out, double v)
{
    char buf[48];
    snprintf(buf, sizeof(buf), "%.3f", v);
    out += buf;
}

} // namespace

TraceCapture::TraceCapture(std::string label)
    : start_ns_(monotonicNanos()), previous_(tls_capture)
{
    trace_.label = std::move(label);
    trace_.id = nextTraceId();
    tls_capture = this;
}

TraceCapture::~TraceCapture()
{
    if (!finished_) {
        tls_capture = previous_;
    }
}

Trace TraceCapture::finish()
{
    VTRAIN_CHECK(!finished_, "TraceCapture::finish called twice");
    VTRAIN_CHECK(tls_capture == this,
                 "TraceCapture::finish off the capturing thread or with "
                 "a nested capture still active");
    finished_ = true;
    tls_capture = previous_;
    trace_.total_us = elapsedUs();
    return std::move(trace_);
}

double TraceCapture::elapsedUs() const
{
    return static_cast<double>(monotonicNanos() - start_ns_) * 1e-3;
}

void TraceCapture::addSpan(const char *name, uint64_t start_ns,
                           uint64_t end_ns)
{
    const auto since_start_us = [this](uint64_t ns) {
        return static_cast<double>(static_cast<int64_t>(ns - start_ns_)) *
               1e-3;
    };
    TraceEvent event;
    event.name = name;
    event.start_us = since_start_us(start_ns);
    event.dur_us = since_start_us(end_ns) - event.start_us;
    event.depth = open_depth_;
    addEvent(event);
}

TraceCapture *TraceCapture::current()
{
    return tls_capture;
}

void TraceCapture::addEvent(const TraceEvent &event)
{
    if (trace_.events.size() >= kMaxSpans) {
        ++trace_.dropped_spans;
        // Surfaced process-wide too: a climbing counter here means
        // traces are silently losing spans to the per-capture cap.
        static Counter *dropped_total = MetricRegistry::global().counter(
            "vtrain_trace_dropped_spans_total", {},
            "Spans discarded because a capture hit its span cap.");
        dropped_total->inc();
        return;
    }
    trace_.events.push_back(event);
}

TraceSpan::TraceSpan(const char *name)
    : capture_(tls_capture), name_(name)
{
    if (capture_) {
        depth_ = capture_->open_depth_++;
        start_us_ = capture_->elapsedUs();
    }
}

TraceSpan::~TraceSpan()
{
    if (capture_) {
        --capture_->open_depth_;
        TraceEvent event;
        event.name = name_;
        event.start_us = start_us_;
        event.dur_us = capture_->elapsedUs() - start_us_;
        event.depth = depth_;
        capture_->addEvent(event);
    }
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity ? capacity : 1)
{
}

TraceRing &TraceRing::global()
{
    static TraceRing *ring = new TraceRing();
    return *ring;
}

void TraceRing::push(Trace trace)
{
    MutexLock lock(mutex_);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(trace));
    } else {
        ring_[next_] = std::move(trace);
    }
    next_ = (next_ + 1) % capacity_;
    ++pushed_;
}

std::vector<Trace> TraceRing::slowest(size_t limit) const
{
    std::vector<Trace> out;
    {
        MutexLock lock(mutex_);
        out = ring_;
    }
    std::sort(out.begin(), out.end(), [](const Trace &a, const Trace &b) {
        return a.total_us > b.total_us;
    });
    if (out.size() > limit) {
        out.resize(limit);
    }
    return out;
}

std::vector<Trace> TraceRing::recent(size_t limit) const
{
    std::vector<Trace> out;
    MutexLock lock(mutex_);
    const size_t n = ring_.size();
    // Walk backwards from the most recently written slot.
    for (size_t i = 0; i < n && out.size() < limit; ++i) {
        const size_t idx = (next_ + n - 1 - i) % n;
        out.push_back(ring_[idx]);
    }
    return out;
}

size_t TraceRing::size() const
{
    MutexLock lock(mutex_);
    return ring_.size();
}

uint64_t TraceRing::totalPushed() const
{
    MutexLock lock(mutex_);
    return pushed_;
}

std::string chromeTraceJson(const std::vector<Trace> &traces)
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    int pid = 0;
    for (const Trace &trace : traces) {
        ++pid;
        if (!first) {
            out += ',';
        }
        first = false;
        // Metadata record naming this trace's "process" row.
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"args\":{\"name\":\"";
        appendEscaped(out, trace.label);
        out += " #";
        out += std::to_string(trace.id);
        out += "\"}}";
        // The request itself as a root span so total time is visible
        // even when no TraceSpan fired inside it.
        out += ",{\"name\":\"";
        appendEscaped(out, trace.label);
        out += "\",\"ph\":\"X\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"tid\":0,\"ts\":0,\"dur\":";
        appendDouble(out, trace.total_us);
        out += '}';
        for (const TraceEvent &event : trace.events) {
            out += ",{\"name\":\"";
            appendEscaped(out, event.name);
            out += "\",\"ph\":\"X\",\"pid\":";
            out += std::to_string(pid);
            out += ",\"tid\":0,\"ts\":";
            appendDouble(out, event.start_us);
            out += ",\"dur\":";
            appendDouble(out, event.dur_us);
            out += '}';
        }
    }
    out += "]}";
    return out;
}

} // namespace util
} // namespace vtrain
