/**
 * @file
 * Tests for util/trace.h: span nesting, inactive no-op behaviour,
 * ring eviction, span caps, Chrome trace JSON export, and cross-thread
 * isolation of the thread-local capture.
 */
#include "util/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"

namespace vtrain {
namespace util {
namespace {

Trace
makeTrace(const std::string &label, double total_us)
{
    Trace trace;
    trace.label = label;
    trace.total_us = total_us;
    return trace;
}

// ------------------------------------------------------------ capture

TEST(TraceCapture, RecordsNestedSpansWithDepth)
{
    TraceCapture capture("test");
    {
        TraceSpan outer("outer");
        {
            TraceSpan inner("inner");
        }
    }
    const Trace trace = capture.finish();
    ASSERT_EQ(trace.events.size(), 2u);
    // Spans are appended on close, so the inner one lands first.
    EXPECT_STREQ(trace.events[0].name, "inner");
    EXPECT_EQ(trace.events[0].depth, 1);
    EXPECT_STREQ(trace.events[1].name, "outer");
    EXPECT_EQ(trace.events[1].depth, 0);
    // Containment: the outer span brackets the inner one.
    EXPECT_LE(trace.events[1].start_us, trace.events[0].start_us);
    EXPECT_GE(trace.events[1].start_us + trace.events[1].dur_us,
              trace.events[0].start_us + trace.events[0].dur_us);
    EXPECT_GE(trace.total_us, trace.events[1].dur_us);
    EXPECT_EQ(trace.dropped_spans, 0u);
    EXPECT_GT(trace.id, 0u);
}

TEST(TraceCapture, SpanWithoutCaptureIsNoop)
{
    ASSERT_EQ(TraceCapture::current(), nullptr);
    TraceSpan span("orphan"); // must not crash or record anywhere
}

TEST(TraceCapture, CurrentTracksInstallAndFinish)
{
    EXPECT_EQ(TraceCapture::current(), nullptr);
    {
        TraceCapture capture("a");
        EXPECT_EQ(TraceCapture::current(), &capture);
        (void)capture.finish();
        EXPECT_EQ(TraceCapture::current(), nullptr);
    }
    EXPECT_EQ(TraceCapture::current(), nullptr);
}

TEST(TraceCapture, UnfinishedCaptureRestoresOnDestruction)
{
    {
        TraceCapture abandoned("abandoned");
        EXPECT_EQ(TraceCapture::current(), &abandoned);
        // No finish(): an early return / exception path.
    }
    EXPECT_EQ(TraceCapture::current(), nullptr);
}

TEST(TraceCapture, NestedCapturesShadow)
{
    TraceCapture outer("outer");
    {
        TraceCapture inner("inner");
        {
            TraceSpan span("belongs-to-inner");
        }
        const Trace trace = inner.finish();
        ASSERT_EQ(trace.events.size(), 1u);
        EXPECT_STREQ(trace.events[0].name, "belongs-to-inner");
    }
    EXPECT_EQ(TraceCapture::current(), &outer);
    const Trace trace = outer.finish();
    EXPECT_TRUE(trace.events.empty());
}

TEST(TraceCapture, SpanCapCountsDrops)
{
    TraceCapture capture("capped");
    for (size_t i = 0; i < TraceCapture::kMaxSpans + 10; ++i) {
        TraceSpan span("s");
    }
    const Trace trace = capture.finish();
    EXPECT_EQ(trace.events.size(), TraceCapture::kMaxSpans);
    EXPECT_EQ(trace.dropped_spans, 10u);
}

TEST(TraceCapture, AddSpanPlacesWorkFromOtherThreads)
{
    TraceCapture capture("handed-off");
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::thread other([&] {
        start_ns = monotonicNanos();
        end_ns = start_ns + 2000;
    });
    other.join();
    {
        TraceSpan outer("outer");
        capture.addSpan("other", start_ns, end_ns);
    }
    const Trace trace = capture.finish();
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_STREQ(trace.events[0].name, "other");
    EXPECT_EQ(trace.events[0].depth, 1) << "nested under the open span";
    EXPECT_GE(trace.events[0].start_us, 0.0);
    EXPECT_LE(trace.events[0].start_us, trace.total_us);
    EXPECT_NEAR(trace.events[0].dur_us, 2.0, 1e-9);
}

TEST(TraceCapture, AddSpanCountsDropsPastTheCap)
{
    TraceCapture capture("capped");
    const uint64_t now = monotonicNanos();
    for (size_t i = 0; i < TraceCapture::kMaxSpans + 3; ++i)
        capture.addSpan("s", now, now);
    const Trace trace = capture.finish();
    EXPECT_EQ(trace.events.size(), TraceCapture::kMaxSpans);
    EXPECT_EQ(trace.dropped_spans, 3u);
}

TEST(TraceCapture, ThreadLocalIsolation)
{
    TraceCapture capture("main-thread");
    std::thread other([] {
        // The other thread sees no capture: its spans vanish instead
        // of corrupting the main thread's trace.
        EXPECT_EQ(TraceCapture::current(), nullptr);
        TraceSpan span("other-thread");
    });
    other.join();
    const Trace trace = capture.finish();
    EXPECT_TRUE(trace.events.empty());
}

// --------------------------------------------------------------- ring

TEST(TraceRing, EvictsOldestWhenFull)
{
    TraceRing ring(3);
    for (int i = 1; i <= 5; ++i) {
        std::string label = "t";
        label += std::to_string(i);
        ring.push(makeTrace(label, i));
    }
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.capacity(), 3u);
    EXPECT_EQ(ring.totalPushed(), 5u);
    // Only the newest three (3, 4, 5) survive.
    const std::vector<Trace> recent = ring.recent(10);
    ASSERT_EQ(recent.size(), 3u);
    EXPECT_EQ(recent[0].label, "t5");
    EXPECT_EQ(recent[1].label, "t4");
    EXPECT_EQ(recent[2].label, "t3");
}

TEST(TraceRing, SlowestSortsByTotal)
{
    TraceRing ring(8);
    ring.push(makeTrace("fast", 1.0));
    ring.push(makeTrace("slow", 100.0));
    ring.push(makeTrace("mid", 10.0));
    const std::vector<Trace> slowest = ring.slowest(2);
    ASSERT_EQ(slowest.size(), 2u);
    EXPECT_EQ(slowest[0].label, "slow");
    EXPECT_EQ(slowest[1].label, "mid");
}

TEST(TraceRing, LimitLargerThanSize)
{
    TraceRing ring(4);
    ring.push(makeTrace("only", 1.0));
    EXPECT_EQ(ring.slowest(100).size(), 1u);
    EXPECT_EQ(ring.recent(100).size(), 1u);
}

TEST(TraceRing, ConcurrentPushers)
{
    TraceRing ring(16);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::vector<std::thread> pushers;
    pushers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pushers.emplace_back([&ring] {
            for (int i = 0; i < kPerThread; ++i)
                ring.push(makeTrace("x", i));
        });
    }
    for (std::thread &p : pushers)
        p.join();
    EXPECT_EQ(ring.size(), 16u);
    EXPECT_EQ(ring.totalPushed(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------- chrome export

TEST(ChromeTraceJson, EmitsCompleteEventsAndMetadata)
{
    Trace trace = makeTrace("POST /v1/evaluate", 1234.5);
    trace.id = 42;
    TraceEvent event;
    event.name = "sim.replay";
    event.start_us = 10.25;
    event.dur_us = 100.75;
    event.depth = 1;
    trace.events.push_back(event);

    const std::string text = chromeTraceJson({trace});
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(text.find("POST /v1/evaluate #42"), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"sim.replay\""), std::string::npos);
    // Numbers are written in shortest round-trip form; compare them
    // parsed.
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::Value::parse(text, &doc, &error)) << error;
    const std::vector<json::Value> &events =
        doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[2].find("ts")->asNumber(), 10.25);
    EXPECT_EQ(events[2].find("dur")->asNumber(), 100.75);
    // The root span covers the whole request.
    EXPECT_EQ(events[1].find("dur")->asNumber(), 1234.5);
}

TEST(ChromeTraceJson, EscapesLabels)
{
    const std::string json =
        chromeTraceJson({makeTrace("quote\" back\\ tab\t", 1.0)});
    EXPECT_NE(json.find("quote\\\" back\\\\ tab\\t"),
              std::string::npos)
        << json;
}

TEST(ChromeTraceJson, EmptyInput)
{
    EXPECT_EQ(chromeTraceJson({}), "{\"traceEvents\":[]}");
}

} // namespace
} // namespace util
} // namespace vtrain
