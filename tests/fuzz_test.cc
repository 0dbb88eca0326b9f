/**
 * @file
 * Seeded mutational fuzzing of the parsers that read network bytes:
 * net::HttpParser in both directions, json::Value::parse and the
 * wire::v1 decoders of SimRequest, SimulationResult, the /v1/sweep
 * request and the sweep response.  The two documents built on
 * json::Value outside the wire schemas (the /tracez export and the
 * HTTP error envelope) are fed every byte value and must parse back
 * byte-exact.
 *
 * Each target starts from serialized valid inputs, mutates them with
 * byte flips, insertions, deletions, duplications and truncations
 * drawn from one fixed-seed Rng, and checks properties that must hold
 * for every input, valid or not.  The seed and the iteration budget
 * are fixed, so every run sees the same inputs and a failure
 * reproduces exactly; the whole suite takes well under a second in
 * Release and starts no threads or processes.  Under the asan preset
 * it doubles as a memory-safety check of every target.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "explore/design_space.h"
#include "explore/explorer.h"
#include "model/model_config.h"
#include "net/http.h"
#include "serve/sim_request.h"
#include "serve/wire.h"
#include "sim/result.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/trace.h"

namespace vtrain {
namespace {

using net::HttpHeader;
using net::HttpLimits;
using net::HttpParser;
using net::HttpRequest;
using net::HttpResponse;
using Status = HttpParser::Status;

constexpr uint64_t kSeed = 0x5eedf00du;
constexpr int kHttpIterations = 10000; // per direction
constexpr int kJsonIterations = 10000;
constexpr int kWireIterations = 2000; // per wire type

// ------------------------------------------------------------ mutator

/**
 * Applies 1-4 random edits to `input`.  Besides random bytes it
 * writes tokens from `dictionary`, so the mutants reach the parser
 * paths behind the structure (header names, escapes, numbers) rather
 * than failing at the first byte.
 */
std::string
mutate(std::string input, Rng &rng,
       const std::vector<std::string_view> &dictionary)
{
    const auto pick = [&](size_t n) {
        return static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    };
    const int edits = static_cast<int>(rng.uniformInt(1, 4));
    for (int e = 0; e < edits; ++e) {
        // A quarter of the edits land in the first 16 bytes, where the
        // densest grammar (a start line, a document's opening) sits.
        const size_t span = rng.uniformInt(0, 3) == 0
                                ? std::min<size_t>(input.size() + 1, 16)
                                : input.size() + 1;
        const size_t at = pick(span);
        switch (rng.uniformInt(0, 6)) {
          case 0: // flip one bit
            if (at < input.size())
                input[at] = static_cast<char>(
                    input[at] ^ (1 << rng.uniformInt(0, 7)));
            break;
          case 1: // overwrite with a random byte
            if (at < input.size())
                input[at] = static_cast<char>(rng.uniformInt(0, 255));
            break;
          case 2: // insert a dictionary token
            input.insert(at, dictionary[pick(dictionary.size())]);
            break;
          case 3: { // overwrite with a dictionary token
            const std::string_view token =
                dictionary[pick(dictionary.size())];
            input.replace(at, token.size(), token);
            break;
          }
          case 4: { // erase a short run
            const size_t n = pick(8) + 1;
            if (at < input.size())
                input.erase(at, n);
            break;
          }
          case 5: { // duplicate a short run in place
            if (at < input.size()) {
                const std::string run = input.substr(at, pick(16) + 1);
                input.insert(at, run);
            }
            break;
          }
          default: // truncate
            input.resize(at);
            break;
        }
    }
    return input;
}

// ---------------------------------------------------------------- HTTP

const std::vector<std::string_view> kHttpTokens = {
    "\r\n",
    "\r\n\r\n",
    "\r",
    "\n",
    ":",
    " ",
    "\t",
    "0",
    "9",
    "Content-Length: ",
    "Content-Length: 3\r\n",
    "Content-Length: 99999999999999999999\r\n",
    "Transfer-Encoding: chunked\r\n",
    "Connection: close\r\n",
    "Connection: keep-alive\r\n",
    "Content-Type: text/plain\r\n",
    "Content-Type:\r\n",
    "HTTP/1.0",
    "HTTP/1.1 ",
    "GET / HTTP/1.1\r\n\r\n",
    "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
};

std::vector<std::string>
requestSeeds()
{
    std::vector<std::string> seeds;
    HttpRequest get;
    get.method = "GET";
    get.target = "/healthz";
    get.headers.push_back({"Host", "localhost:8080"});
    seeds.push_back(net::serializeRequest(get));

    HttpRequest post;
    post.method = "POST";
    post.target = "/v1/evaluate?trace=1";
    post.version = "HTTP/1.0";
    post.headers.push_back({"Connection", "keep-alive"});
    post.headers.push_back({"X-Api-Key", "tenant-a"});
    post.body = "{\"version\":1,\"plan\":{\"t\":8,\"d\":16,\"p\":8}}";
    seeds.push_back(net::serializeRequest(post));

    HttpRequest options;
    options.method = "OPTIONS";
    options.target = "*";
    options.headers.push_back({"Connection", "close"});
    seeds.push_back(net::serializeRequest(options));
    return seeds;
}

std::vector<std::string>
responseSeeds()
{
    std::vector<std::string> seeds;
    HttpResponse ok;
    ok.body = "{\"result\":{\"iteration_s\":28.125}}";
    ok.headers.push_back({"X-Trace-Id", "abc123"});
    seeds.push_back(net::serializeResponse(ok, /*keep_alive=*/true));
    seeds.push_back(net::serializeResponse(
        net::errorResponse(503, "shed"), /*keep_alive=*/false));

    HttpResponse metrics;
    metrics.content_type = "text/plain; version=0.0.4";
    metrics.headers.push_back({"Retry-After", "2"});
    metrics.body = "vtrain_up 1\n";
    seeds.push_back(net::serializeResponse(metrics, true));

    HttpResponse empty;
    empty.status = 204;
    empty.content_type.clear();
    seeds.push_back(net::serializeResponse(empty, true));
    return seeds;
}

/** Whether `name` is a non-empty RFC 9110 token. */
bool
isToken(std::string_view name)
{
    return !name.empty() &&
           std::all_of(name.begin(), name.end(), [](char c) {
               return std::isalnum(static_cast<unsigned char>(c)) ||
                      std::string_view("!#$%&'*+-.^_`|~").find(c) !=
                          std::string_view::npos;
           });
}

bool
isNamed(const HttpHeader &h, std::string_view name)
{
    if (h.name.size() != name.size())
        return false;
    for (size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(h.name[i])) !=
            std::tolower(static_cast<unsigned char>(name[i])))
            return false;
    }
    return true;
}

/** Headers without the framing ones the serializers write. */
std::vector<HttpHeader>
withoutFraming(std::vector<HttpHeader> headers,
               std::vector<std::string_view> framing)
{
    std::erase_if(headers, [&](const HttpHeader &h) {
        for (const std::string_view name : framing) {
            if (isNamed(h, name))
                return true;
        }
        return false;
    });
    return headers;
}

/** A printable record of every field a parse produces. */
std::string
describe(const HttpRequest &r)
{
    std::string out = "request[" + r.method + "|" + r.target + "|" +
                      r.version + "|" + (r.keep_alive ? "ka" : "close");
    for (const HttpHeader &h : r.headers)
        out += "|" + h.name + "=" + h.value;
    out += "|body=" + r.body + "]";
    return out;
}

std::string
describe(const HttpResponse &r)
{
    std::string out = "response[" + std::to_string(r.status) + "|" +
                      r.content_type + "|" + (r.close ? "close" : "ka");
    for (const HttpHeader &h : r.headers)
        out += "|" + h.name + "=" + h.value;
    out += "|body=" + r.body + "]";
    return out;
}

/** The headers each serializer writes itself. */
std::vector<std::string_view>
framing(const HttpRequest &)
{
    return {"Content-Length"};
}

std::vector<std::string_view>
framing(const HttpResponse &)
{
    return {"Content-Length", "Content-Type", "Connection"};
}

std::string
serialize(const HttpRequest &r)
{
    return net::serializeRequest(r);
}

std::string
serialize(const HttpResponse &r)
{
    return net::serializeResponse(r, !r.close);
}

/** Re-serializing a parsed message parses back to the same fields. */
template <typename Message>
void
expectRoundTrip(const Message &parsed, const std::string &input)
{
    Message expected = parsed;
    expected.headers = withoutFraming(parsed.headers, framing(parsed));
    std::string wire = serialize(expected);
    HttpParser parser(HttpLimits{0, 0});
    Message again;
    ASSERT_EQ(parser.parse(&wire, &again), Status::Complete)
        << parser.errorMessage()
        << "\ninput: " << testing::PrintToString(input);
    EXPECT_TRUE(wire.empty());
    again.headers = withoutFraming(again.headers, framing(again));
    EXPECT_EQ(describe(again), describe(expected))
        << "input: " << testing::PrintToString(input);
}

/**
 * Feeds `input` to a fresh parser in the given chunks, parsing after
 * every chunk until the parser wants more, and records each outcome.
 * Checks the per-call contract on the way: NeedMore and Error leave
 * the buffer as it was, Complete consumes a non-empty prefix, and an
 * error sticks.
 */
template <typename Message>
std::vector<std::string>
feed(const std::string &input, const std::vector<size_t> &cuts,
     HttpLimits limits)
{
    HttpParser parser(limits);
    std::vector<std::string> outcomes;
    std::string buffer;
    size_t from = 0;
    for (size_t c = 0; c <= cuts.size(); ++c) {
        const size_t to = c < cuts.size() ? cuts[c] : input.size();
        buffer.append(input, from, to - from);
        from = to;
        for (;;) {
            const std::string before = buffer;
            Message message;
            const Status status = parser.parse(&buffer, &message);
            if (status == Status::Complete) {
                EXPECT_LT(buffer.size(), before.size());
                EXPECT_EQ(before.substr(before.size() - buffer.size()),
                          buffer);
                for (const HttpHeader &h : message.headers)
                    EXPECT_TRUE(isToken(h.name))
                        << "accepted field name "
                        << testing::PrintToString(h.name);
                expectRoundTrip(message, input);
                outcomes.push_back(describe(message));
                continue;
            }
            EXPECT_EQ(buffer, before);
            if (status == Status::Error) {
                EXPECT_NE(parser.errorStatus(), 0);
                EXPECT_FALSE(parser.errorMessage().empty());
                EXPECT_EQ(parser.parse(&buffer, &message), Status::Error);
                outcomes.push_back("error " +
                                   std::to_string(parser.errorStatus()) +
                                   " " + parser.errorMessage());
                return outcomes;
            }
            break; // NeedMore
        }
    }
    outcomes.push_back("need-more " + std::to_string(buffer.size()));
    return outcomes;
}

template <typename Message>
void
fuzzHttp(const std::vector<std::string> &seeds, uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < kHttpIterations; ++i) {
        std::string input = seeds[rng.uniformInt(0, seeds.size() - 1)];
        if (rng.uniformInt(0, 3) == 0) // pipelined follower
            input += seeds[rng.uniformInt(0, seeds.size() - 1)];
        if (rng.uniformInt(0, 7) != 0)
            input = mutate(std::move(input), rng, kHttpTokens);

        // Tight limits half the time, so both limit paths get hit.
        HttpLimits limits;
        if (rng.uniformInt(0, 1) == 0) {
            limits.max_header_bytes = rng.uniformInt(16, 160);
            limits.max_body_bytes = rng.uniformInt(0, 48);
        }

        std::vector<size_t> cuts;
        const int n_cuts = static_cast<int>(rng.uniformInt(1, 6));
        for (int c = 0; c < n_cuts; ++c)
            cuts.push_back(rng.uniformInt(0, input.size()));
        std::sort(cuts.begin(), cuts.end());

        // However the bytes are split across reads, the parser sees
        // the same messages and ends in the same state.
        const std::vector<std::string> whole =
            feed<Message>(input, {}, limits);
        const std::vector<std::string> split =
            feed<Message>(input, cuts, limits);
        ASSERT_EQ(whole, split)
            << "input: " << testing::PrintToString(input);
        // One failing input is enough to reproduce; stop there.
        ASSERT_FALSE(testing::Test::HasFailure()) << "iteration " << i;
    }
}

TEST(Fuzz, HttpParserRequests)
{
    std::vector<std::string> seeds = requestSeeds();
    // The wrong direction too: responses must fail cleanly as requests.
    seeds.push_back(responseSeeds().front());
    fuzzHttp<HttpRequest>(seeds, kSeed);
}

TEST(Fuzz, HttpParserResponses)
{
    std::vector<std::string> seeds = responseSeeds();
    seeds.push_back(requestSeeds().front());
    fuzzHttp<HttpResponse>(seeds, kSeed + 1);
}

// ---------------------------------------------------------------- JSON

const std::vector<std::string_view> kJsonTokens = {
    "{",     "}",      "[",      "]",      "\"",       ":",
    ",",     "\\",     "\\u",    "\\ud83d", "\\ude00", "\\u00e9",
    "-",     ".",      "e",      "E+",     "0",        "1e308",
    "1e999", "5e-324", "-0",     "true",   "false",    "null",
    " ",     "\n",     "\"k\":", "[[[[",   "]]]]",     "\xc3\xa9",
};

const std::vector<std::string> kJsonSeeds = {
    R"({"version":1,"model":{"name":"gpt3-175b","layers":96},)"
    R"("plan":{"t":8,"d":16,"p":8,"m":1},"cluster":{"gpus":1024}})",
    R"([0,-0,1.5,-2.25e-7,1e308,5e-324,9007199254740993,0.1])",
    R"({"s":"tab\tquote\"slash\/uniépair😀nul\u0000"})",
    R"({"a":[],"b":{},"c":[null,true,false],"d":{"e":{"f":[[1]]}}})",
    R"("just a string")",
    R"(  [ 1 , { "k" : "v" } , [ ] ]  )",
};

TEST(Fuzz, JsonParseDumpIsAFixedPoint)
{
    Rng rng(kSeed + 2);
    int accepted = 0;
    for (int i = 0; i < kJsonIterations; ++i) {
        std::string input =
            kJsonSeeds[rng.uniformInt(0, kJsonSeeds.size() - 1)];
        if (rng.uniformInt(0, 7) != 0)
            input = mutate(std::move(input), rng, kJsonTokens);

        json::Value value;
        std::string error;
        if (!json::Value::parse(input, &value, &error)) {
            EXPECT_FALSE(error.empty())
                << "input: " << testing::PrintToString(input);
            continue;
        }
        ++accepted;
        // Every accepted document dumps to text that parses back to a
        // document dumping identically.
        const std::string dumped = value.dump();
        json::Value again;
        ASSERT_TRUE(json::Value::parse(dumped, &again, &error))
            << error << "\ninput: " << testing::PrintToString(input);
        ASSERT_EQ(again.dump(), dumped)
            << "input: " << testing::PrintToString(input);
    }
    // A mutator that only produced rejects would check nothing.
    EXPECT_GT(accepted, kJsonIterations / 10);
}

/**
 * Strings that hold every byte 0x00-0xFF: all of them in one string,
 * each alone, and random byte strings.  `no_nul` drops 0x00 (for
 * TraceEvent names, which are C strings).
 */
std::vector<std::string>
everyByteStrings(bool no_nul)
{
    std::vector<std::string> out(1);
    for (int b = no_nul ? 1 : 0; b < 256; ++b) {
        out.front().push_back(static_cast<char>(b));
        out.push_back(std::string(1, static_cast<char>(b)));
    }
    Rng rng(kSeed + 7);
    for (int i = 0; i < 200; ++i) {
        std::string s(static_cast<size_t>(rng.uniformInt(0, 24)), '\0');
        for (char &c : s)
            c = static_cast<char>(rng.uniformInt(no_nul ? 1 : 0, 255));
        out.push_back(std::move(s));
    }
    return out;
}

TEST(Fuzz, TraceExportCarriesEveryByte)
{
    const std::vector<std::string> labels = everyByteStrings(false);
    const std::vector<std::string> names = everyByteStrings(true);
    for (size_t i = 0; i < labels.size(); ++i) {
        util::Trace trace;
        trace.label = labels[i];
        trace.id = i;
        trace.total_us = 12.5;
        util::TraceEvent event;
        event.name = names[i % names.size()].c_str();
        trace.events.push_back(event);

        const std::string text = util::chromeTraceJson({trace});
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::Value::parse(text, &doc, &error))
            << error << "\nlabel: " << testing::PrintToString(labels[i]);
        const std::vector<json::Value> &events =
            doc.find("traceEvents")->items();
        ASSERT_EQ(events.size(), 3u);
        EXPECT_EQ(events[0].find("args")->find("name")->asString(),
                  labels[i] + " #" + std::to_string(i));
        EXPECT_EQ(events[1].find("name")->asString(), labels[i]);
        EXPECT_EQ(events[2].find("name")->asString(),
                  names[i % names.size()]);
    }
}

TEST(Fuzz, ErrorEnvelopeCarriesEveryByte)
{
    for (const std::string &message : everyByteStrings(false)) {
        const std::string text = net::jsonErrorBody(422, message);
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::Value::parse(text, &doc, &error))
            << error << "\nmessage: " << testing::PrintToString(message);
        const json::Value *body = doc.find("error");
        ASSERT_NE(body, nullptr);
        EXPECT_EQ(body->find("code")->asInt64(), 422);
        EXPECT_EQ(body->find("status")->asString(),
                  net::statusReason(422));
        EXPECT_EQ(body->find("message")->asString(), message);
    }
}

// ---------------------------------------------------------------- wire

const std::vector<std::string_view> kWireTokens = {
    "{", "}", "[", "]", "\"", ":", ",", "-", "0", "\"x\":1,",
    "\"version\":2,", "\"plans\":[],", "\"spec\":{},",
};

/** Replacement member values: edge numbers, every JSON type, and the
 *  enum spellings. */
const std::vector<std::string_view> kWireValues = {
    "0",         "-1",        "1",          "2",
    "-0",        "0.5",       "1.5",        "1e308",
    "1e-300",    "64",        "2147483647", "2147483648",
    "-2147483649", "9007199254740993", "18446744073709551616",
    "true",      "false",     "null",       "\"\"",
    "\"x\"",     "\"gpipe\"", "\"1f1b\"",   "\"bf16\"",
    "\"fp32\"",  "\"flash2\"", "[]",        "{}",
    "[1,2]",     "{\"x\":1}",
};

/** Replacement member names: an unknown one and known ones that may
 *  collide with a sibling. */
const std::vector<std::string_view> kWireKeys = {
    "\"x\"",       "\"version\"", "\"tensor\"",      "\"plans\"",
    "\"spec\"",    "\"name\"",    "\"deadline_ms\"", "\"results\"",
    "\"options\"", "\"plan\"",
};

/**
 * The scalar tokens of a JSON text, as [begin, end) spans: member
 * names (a string followed by ':') in *keys, everything else in
 * *values.  Tolerates malformed text.
 */
void
scalarSpans(const std::string &text,
            std::vector<std::pair<size_t, size_t>> *keys,
            std::vector<std::pair<size_t, size_t>> *values)
{
    const std::string_view delimiters("{}[],: \"", 8);
    size_t i = 0;
    while (i < text.size()) {
        if (text[i] == '"') {
            size_t end = i + 1;
            while (end < text.size() && text[end] != '"')
                end += text[end] == '\\' ? 2 : 1;
            end = std::min(end + 1, text.size());
            (end < text.size() && text[end] == ':' ? keys : values)
                ->emplace_back(i, end);
            i = end;
        } else if (delimiters.find(text[i]) != std::string_view::npos) {
            ++i;
        } else {
            size_t end = i;
            while (end < text.size() &&
                   delimiters.find(text[end]) == std::string_view::npos)
                ++end;
            values->emplace_back(i, end);
            i = end;
        }
    }
}

/** The JSON kind a token's first byte starts. */
char
jsonKind(char first)
{
    if (first == '"' || first == 't' || first == 'n')
        return first;
    if (first == 'f')
        return 't';
    return first == '[' || first == '{' ? '[' : '0';
}

/**
 * Mostly one or two edits that keep the JSON well formed (a member
 * value or name swapped for a dictionary one), so that many mutants
 * get past the parser into the schema checks; a quarter of the time
 * the byte-level mutator.
 */
std::string
mutateWire(std::string input, Rng &rng)
{
    if (rng.uniformInt(0, 3) == 0)
        return mutate(std::move(input), rng, kWireTokens);
    const int edits = static_cast<int>(rng.uniformInt(1, 2));
    for (int e = 0; e < edits; ++e) {
        std::vector<std::pair<size_t, size_t>> keys, values;
        scalarSpans(input, &keys, &values);
        const bool rename = rng.uniformInt(0, 4) == 0 && !keys.empty();
        const auto &spans = rename ? keys : values;
        const auto &tokens = rename ? kWireKeys : kWireValues;
        if (spans.empty())
            break;
        const auto [begin, end] =
            spans[rng.uniformInt(0, spans.size() - 1)];
        // Mostly a token of the same JSON kind, which the schema may
        // accept; otherwise any, which exercises the type checks.
        std::vector<std::string_view> pool;
        for (const std::string_view token : tokens)
            if (jsonKind(token.front()) == jsonKind(input[begin]))
                pool.push_back(token);
        if (pool.empty() || rng.uniformInt(0, 3) == 0)
            pool = tokens;
        input.replace(begin, end - begin,
                      pool[rng.uniformInt(0, pool.size() - 1)]);
    }
    return input;
}

SimRequest
wireRequest()
{
    SimRequest r;
    r.model = makeModel(12288, 96, 96); // GPT-3 175B
    r.parallel.tensor = 8;
    r.parallel.data = 16;
    r.parallel.pipeline = 8;
    r.parallel.micro_batch_size = 1;
    r.parallel.global_batch_size = 1536;
    r.cluster = makeCluster(1024);
    return r;
}

SimRequest
wireRequestVariant()
{
    SimRequest r = wireRequest();
    r.model.name = "odd \"7B\"\n";
    r.parallel.schedule = PipelineSchedule::GPipe;
    r.parallel.precision = Precision::BF16;
    r.parallel.bucket_bytes = 0.1 + 0.2;
    r.parallel.zero_stage = 1;
    r.cluster.bandwidth_effectiveness = 1.0 / 3.0;
    r.options.fast_mode = false;
    r.options.attention = AttentionImpl::FlashAttention2;
    return r;
}

SimulationResult
wireResult(double seconds)
{
    SimulationResult r;
    r.iteration_seconds = seconds;
    r.utilization = 0.1 + 0.2;
    r.model_flops = 3.14e18;
    r.bubble_fraction = 1.0 / 7.0;
    for (size_t i = 0; i < r.time_by_tag.size(); ++i)
        r.time_by_tag[i] = seconds / static_cast<double>(i + 2);
    r.num_operators = 1234;
    r.num_tasks = size_t{1} << 40;
    r.extrapolated = true;
    r.simulated_micro_batches = 2;
    r.total_micro_batches = 1536;
    r.sim_wall_seconds = 5e-324;
    return r;
}

std::vector<wire::v1::SweepRequest>
wireSweepRequests()
{
    wire::v1::SweepRequest plans;
    plans.model = wireRequest().model;
    plans.cluster = wireRequest().cluster;
    plans.plans = {wireRequest().parallel, wireRequestVariant().parallel};
    plans.deadline_ms = 2500;

    wire::v1::SweepRequest spec = plans;
    spec.plans.clear();
    spec.use_spec = true;
    spec.spec.micro_batch_sizes = {1, 2, 4};
    spec.spec.exact_gpus = 1024;
    spec.deadline_ms = -1;
    return {plans, spec};
}

std::vector<ExploreResult>
wireSweepResults()
{
    return {ExploreResult{wireRequest().parallel, wireResult(28.125)},
            ExploreResult{wireRequestVariant().parallel,
                          wireResult(1.0 / 3.0)}};
}

/**
 * Mutates the encoded seeds and checks that re-encoding any accepted
 * mutant gives a fixed point: its encoding decodes again and encodes
 * to the same bytes.  `reencode(text, &out)` decodes `text` and, when
 * it accepts, sets `out` to the re-encoding.
 */
template <typename Reencode>
void
fuzzWire(const std::vector<std::string> &seeds, uint64_t seed,
         Reencode reencode)
{
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < kWireIterations; ++i) {
        std::string input = seeds[rng.uniformInt(0, seeds.size() - 1)];
        if (rng.uniformInt(0, 7) != 0)
            input = mutateWire(std::move(input), rng);
        std::string once;
        if (!reencode(input, &once))
            continue;
        ++accepted;
        std::string twice;
        ASSERT_TRUE(reencode(once, &twice))
            << "re-encoding rejected: " << once
            << "\ninput: " << testing::PrintToString(input);
        ASSERT_EQ(twice, once)
            << "input: " << testing::PrintToString(input);
        // One failing input is enough to reproduce; stop there.
        ASSERT_FALSE(testing::Test::HasFailure())
            << "input: " << testing::PrintToString(input);
    }
    // A mutator that only produced rejects would check nothing.
    EXPECT_GT(accepted, kWireIterations / 5);
}

/**
 * The re-encoding of a type with operator==; a value it accepts must
 * also come back equal from decode(encode(x)).
 */
template <typename T>
bool
reencodeExact(std::string_view text, std::string *out)
{
    T decoded;
    if (!wire::v1::decode(text, &decoded))
        return false;
    *out = wire::v1::encode(decoded).dump();
    T again;
    EXPECT_TRUE(wire::v1::decode(*out, &again)) << *out;
    EXPECT_EQ(again, decoded) << *out;
    return true;
}

TEST(Fuzz, WireSimRequest)
{
    std::vector<std::string> seeds;
    for (const SimRequest &request : {wireRequest(), wireRequestVariant()}) {
        const std::string text = wire::v1::encode(request).dump();
        SimRequest decoded;
        std::string error;
        ASSERT_TRUE(wire::v1::decode(text, &decoded, &error)) << error;
        EXPECT_EQ(decoded, request);
        seeds.push_back(text);
    }
    fuzzWire(seeds, kSeed + 3, reencodeExact<SimRequest>);
}

TEST(Fuzz, WireSimulationResult)
{
    std::vector<std::string> seeds;
    for (const SimulationResult &result :
         {wireResult(28.125), wireResult(1.0 / 3.0), SimulationResult{}}) {
        const std::string text = wire::v1::encode(result).dump();
        SimulationResult decoded;
        std::string error;
        ASSERT_TRUE(wire::v1::decode(text, &decoded, &error)) << error;
        EXPECT_EQ(decoded, result);
        seeds.push_back(text);
    }
    fuzzWire(seeds, kSeed + 4, reencodeExact<SimulationResult>);
}

TEST(Fuzz, WireSweepRequest)
{
    // SweepRequest has no operator==; its encoding stands in for it
    // (every field is encoded, numbers in shortest round-trip form).
    const auto reencode = [](std::string_view text, std::string *out) {
        wire::v1::SweepRequest decoded;
        net::HttpResponse rejected;
        if (!wire::v1::decodeSweepRequest(text, &decoded, &rejected))
            return false;
        *out = wire::v1::encode(decoded).dump();
        return true;
    };
    std::vector<std::string> seeds;
    for (const wire::v1::SweepRequest &request : wireSweepRequests()) {
        const std::string text = wire::v1::encode(request).dump();
        std::string again;
        ASSERT_TRUE(reencode(text, &again)) << text;
        EXPECT_EQ(again, text);
        seeds.push_back(text);
    }
    fuzzWire(seeds, kSeed + 5, reencode);
}

TEST(Fuzz, WireSweepResponse)
{
    const std::vector<ExploreResult> results = wireSweepResults();
    const std::string text = wire::v1::encodeSweepResponse(results);
    std::vector<ExploreResult> decoded;
    std::string error;
    ASSERT_TRUE(wire::v1::decodeSweepResponse(text, &decoded, &error))
        << error;
    ASSERT_EQ(decoded.size(), results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(decoded[i].plan, results[i].plan);
        EXPECT_EQ(decoded[i].sim, results[i].sim);
    }
    fuzzWire({text, wire::v1::encodeSweepResponse({})}, kSeed + 6,
             [](std::string_view body, std::string *out) {
                 std::vector<ExploreResult> parsed;
                 if (!wire::v1::decodeSweepResponse(body, &parsed))
                     return false;
                 *out = wire::v1::encodeSweepResponse(parsed);
                 return true;
             });
}

} // namespace
} // namespace vtrain
