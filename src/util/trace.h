/**
 * @file
 * Lightweight request tracing: RAII spans, per-thread capture, and a
 * bounded ring of recent traces exportable as Chrome `trace_event`
 * JSON (loads directly into Perfetto / chrome://tracing).
 *
 * Design: a `TraceCapture` installed on a thread makes every
 * `TraceSpan` constructed on that thread append a timed event; with
 * no capture installed a span is two thread-local reads (~ns), so
 * the simulator phases can stay instrumented unconditionally.  The
 * serve frontend wraps each evaluate request in a capture and pushes
 * the finished trace into the global `TraceRing`, which `/tracez`
 * serves (slowest-first) as Chrome trace JSON.
 *
 * Threading: spans and captures are strictly thread-local (a capture
 * does not follow work handed to another thread; the capturing thread
 * adds such work afterwards with addSpan()); `TraceRing` is
 * thread-safe.
 */
#ifndef VTRAIN_UTIL_TRACE_H
#define VTRAIN_UTIL_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {
namespace util {

/** One closed span inside a trace; times are relative to the
 *  capture's start. */
struct TraceEvent {
    const char *name = ""; //!< static string supplied by the TraceSpan
    double start_us = 0.0;
    double dur_us = 0.0;
    int depth = 0; //!< nesting depth at entry (0 = top level)
};

/** A finished capture: every span closed on the capturing thread. */
struct Trace {
    std::string label;  //!< e.g. "POST /v1/evaluate"
    uint64_t id = 0;    //!< unique per process, assigned at capture start
    double total_us = 0.0;
    uint64_t dropped_spans = 0; //!< spans past the per-trace cap
    std::vector<TraceEvent> events;
};

/**
 * Collects the spans of the current thread between construction and
 * finish().  Captures nest: constructing a second capture on the same
 * thread shadows the first until it finishes (used by tests; the
 * serve stack keeps one per request).
 */
class TraceCapture
{
  public:
    /** Spans beyond this many per trace are counted, not stored. */
    static constexpr size_t kMaxSpans = 512;

    explicit TraceCapture(std::string label);
    ~TraceCapture();

    TraceCapture(const TraceCapture &) = delete;
    TraceCapture &operator=(const TraceCapture &) = delete;

    /**
     * Stops capturing and returns the trace.  All spans opened under
     * this capture must be closed first (RAII makes this natural).
     * Must be called on the constructing thread, at most once.
     */
    Trace finish();

    /** Microseconds since this capture started (for TraceSpan). */
    double elapsedUs() const;

    /**
     * Adds a closed span that another thread ran on this capture's
     * behalf, timed by util::monotonicNanos() from `start_ns` to
     * `end_ns`.  It sits at the current nesting depth and counts
     * against kMaxSpans like any other span.  Must be called on the
     * capturing thread.
     */
    void addSpan(const char *name, uint64_t start_ns, uint64_t end_ns);

    /** The capture installed on the current thread, or nullptr. */
    static TraceCapture *current();

  private:
    friend class TraceSpan;

    void addEvent(const TraceEvent &event);

    Trace trace_;
    uint64_t start_ns_ = 0;
    int open_depth_ = 0; //!< currently-open span count on this thread
    TraceCapture *previous_ = nullptr;
    bool finished_ = false;
};

/**
 * RAII span: marks a named phase of the current thread's capture.
 * Constructing one with no active capture is a cheap no-op.  `name`
 * must outlive the capture (pass a string literal).
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceCapture *capture_;
    const char *name_;
    double start_us_ = 0.0;
    int depth_ = 0;
};

/**
 * Fixed-capacity ring of recent traces; the oldest is evicted when
 * full.  One process-global instance backs `/tracez`.
 */
class TraceRing
{
  public:
    explicit TraceRing(size_t capacity = 64);

    TraceRing(const TraceRing &) = delete;
    TraceRing &operator=(const TraceRing &) = delete;

    /** The process-global ring (what /tracez serves). */
    static TraceRing &global();

    void push(Trace trace) EXCLUDES(mutex_);

    /** Up to `limit` retained traces, slowest first. */
    std::vector<Trace> slowest(size_t limit) const EXCLUDES(mutex_);

    /** Up to `limit` retained traces, newest first. */
    std::vector<Trace> recent(size_t limit) const EXCLUDES(mutex_);

    size_t size() const EXCLUDES(mutex_);
    size_t capacity() const { return capacity_; }

    /** Lifetime total of pushes (>= size(); the excess was evicted). */
    uint64_t totalPushed() const EXCLUDES(mutex_);

  private:
    const size_t capacity_;
    mutable Mutex mutex_;
    std::vector<Trace> ring_ GUARDED_BY(mutex_);
    size_t next_ GUARDED_BY(mutex_) = 0;
    uint64_t pushed_ GUARDED_BY(mutex_) = 0;
};

/**
 * Renders traces as Chrome `trace_event` JSON ("X" complete events,
 * one pid per trace with a process_name metadata record).  Load the
 * result in Perfetto (ui.perfetto.dev) or chrome://tracing.
 */
std::string chromeTraceJson(const std::vector<Trace> &traces);

} // namespace util
} // namespace vtrain

#endif // VTRAIN_UTIL_TRACE_H
