/**
 * @file
 * Seeded mutational fuzzing of the parsers that read network bytes:
 * net::HttpParser in both directions and json::Value::parse.
 *
 * Each target starts from serialized valid inputs, mutates them with
 * byte flips, insertions, deletions, duplications and truncations
 * drawn from one fixed-seed Rng, and checks properties that must hold
 * for every input, valid or not.  The seed and the iteration budget
 * are fixed, so every run sees the same inputs and a failure
 * reproduces exactly; the whole suite takes well under a second in
 * Release and starts no threads or processes.  Under the asan preset
 * it doubles as a memory-safety check of both parsers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "serve/json.h"
#include "util/rng.h"

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

} // namespace
} // namespace vtrain
