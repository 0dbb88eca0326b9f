/**
 * @file
 * Tests of the dependency-free net layer: the incremental HTTP
 * parser in both directions (including the malformed-input and
 * size-limit edge cases the server relies on), the serializers, and
 * the socket wrappers.  Every suite name starts with "Net" so CI can
 * select the subsystem with `ctest -R '^Net'` (the TSan job does).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "net/http.h"
#include "net/http_client.h"
#include "net/socket.h"
#include "util/json.h"

namespace vtrain {
namespace net {
namespace {

using Status = HttpParser::Status;

constexpr char kSimpleGet[] = "GET /healthz HTTP/1.1\r\n"
                              "Host: localhost:8080\r\n"
                              "\r\n";

// ------------------------------------------------------ request parse

TEST(NetHttpParser, ParsesSimpleGet)
{
    HttpParser parser;
    std::string buffer = kSimpleGet;
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete);
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.target, "/healthz");
    EXPECT_EQ(request.version, "HTTP/1.1");
    EXPECT_TRUE(request.keep_alive);
    EXPECT_TRUE(request.body.empty());
    EXPECT_TRUE(buffer.empty());
    const std::string *host = request.findHeader("Host");
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(*host, "localhost:8080");
}

TEST(NetHttpParser, ParsesPostWithBody)
{
    HttpParser parser;
    std::string buffer = "POST /v1/evaluate HTTP/1.1\r\n"
                         "Content-Type: application/json\r\n"
                         "Content-Length: 11\r\n"
                         "\r\n"
                         "{\"x\": true}";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.body, "{\"x\": true}");
    EXPECT_TRUE(buffer.empty());
}

TEST(NetHttpParser, AssemblesRequestFromSingleByteReads)
{
    const std::string wire = "POST /v1/evaluate HTTP/1.1\r\n"
                             "Content-Length: 4\r\n"
                             "\r\n"
                             "household"; // 5 trailing pipelined bytes
    HttpParser parser;
    std::string buffer;
    HttpRequest request;
    const size_t complete_at = wire.size() - 5;
    for (size_t i = 0; i < complete_at; ++i) {
        buffer.push_back(wire[i]);
        const Status status = parser.parse(&buffer, &request);
        if (i + 1 < complete_at)
            ASSERT_EQ(status, Status::NeedMore) << "byte " << i;
        else
            ASSERT_EQ(status, Status::Complete);
    }
    EXPECT_EQ(request.body, "hous");
    EXPECT_TRUE(buffer.empty());
}

TEST(NetHttpParser, TruncatedHeadersWantMoreBytes)
{
    HttpParser parser;
    std::string buffer = "GET /healthz HTTP/1.1\r\nHost: unfin";
    HttpRequest request;
    EXPECT_EQ(parser.parse(&buffer, &request), Status::NeedMore);
    // The partial request stays buffered for the next read.
    EXPECT_EQ(buffer, "GET /healthz HTTP/1.1\r\nHost: unfin");
}

TEST(NetHttpParser, OversizedHeaderSectionIs431)
{
    HttpLimits limits;
    limits.max_header_bytes = 128;
    HttpParser parser(limits);
    std::string buffer = "GET / HTTP/1.1\r\nX-Filler: " +
                         std::string(256, 'x'); // no terminator yet
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(NetHttpParser, ContentLengthOverBodyLimitIs413)
{
    HttpLimits limits;
    limits.max_body_bytes = 64;
    HttpParser parser(limits);
    // The declared length alone must trigger the error -- the server
    // cannot wait for (or buffer) a body it will refuse.
    std::string buffer = "POST /v1/evaluate HTTP/1.1\r\n"
                         "Content-Length: 65\r\n"
                         "\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
}

TEST(NetHttpParser, MalformedRequestLineIs400)
{
    for (const char *wire :
         {"GARBAGE\r\n\r\n", "GET /\r\n\r\n",
          "GET  / HTTP/1.1\r\n\r\n", "GET / HTTP/1.1 extra\r\n\r\n",
          "GET nopath HTTP/1.1\r\n\r\n"}) {
        HttpParser parser;
        std::string buffer = wire;
        HttpRequest request;
        ASSERT_EQ(parser.parse(&buffer, &request), Status::Error)
            << wire;
        EXPECT_EQ(parser.errorStatus(), 400) << wire;
        EXPECT_FALSE(parser.errorMessage().empty());
    }
}

TEST(NetHttpParser, MalformedContentLengthIs400)
{
    for (const char *value : {"abc", "-5", "1 2", ""}) {
        HttpParser parser;
        std::string buffer = "POST / HTTP/1.1\r\nContent-Length: " +
                             std::string(value) + "\r\n\r\n";
        HttpRequest request;
        ASSERT_EQ(parser.parse(&buffer, &request), Status::Error)
            << value;
        EXPECT_EQ(parser.errorStatus(), 400) << value;
    }
}

TEST(NetHttpParser, DuplicateContentLengthIs400)
{
    HttpParser parser;
    // Conflicting lengths would let two parties frame the body
    // differently (request smuggling); even agreeing duplicates are
    // rejected.
    std::string buffer = "POST / HTTP/1.1\r\n"
                         "Content-Length: 5\r\n"
                         "Content-Length: 30\r\n"
                         "\r\n"
                         "hello";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 400);
}

TEST(NetHttpParser, OverflowingContentLengthIsRejectedUnlimited)
{
    HttpLimits limits;
    limits.max_body_bytes = 0; // "unlimited" must still not overflow
    HttpParser parser(limits);
    std::string buffer = "POST / HTTP/1.1\r\n"
                         "Content-Length: 18446744073709551617\r\n"
                         "\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 400);
}

TEST(NetHttpParser, ChunkedTransferEncodingIs501)
{
    HttpParser parser;
    std::string buffer = "POST / HTTP/1.1\r\n"
                         "Transfer-Encoding: chunked\r\n"
                         "\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 501);
}

TEST(NetHttpParser, UnsupportedVersionIs505)
{
    HttpParser parser;
    std::string buffer = "GET / HTTP/2.0\r\n\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 505);
}

TEST(NetHttpParser, PipelinedRequestsParseInOrder)
{
    HttpParser parser;
    std::string buffer = std::string(kSimpleGet) +
                         "POST /v1/evaluate HTTP/1.1\r\n"
                         "Content-Length: 2\r\n"
                         "\r\n"
                         "{}";
    HttpRequest first;
    ASSERT_EQ(parser.parse(&buffer, &first), Status::Complete);
    EXPECT_EQ(first.target, "/healthz");
    // The second request is still intact at the front of the buffer.
    HttpRequest second;
    ASSERT_EQ(parser.parse(&buffer, &second), Status::Complete);
    EXPECT_EQ(second.target, "/v1/evaluate");
    EXPECT_EQ(second.body, "{}");
    EXPECT_TRUE(buffer.empty());
}

TEST(NetHttpParser, KeepAliveSemanticsPerVersion)
{
    struct Case {
        const char *head;
        bool keep_alive;
    };
    const Case cases[] = {
        {"GET / HTTP/1.1\r\n\r\n", true},
        {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
        {"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false},
        {"GET / HTTP/1.0\r\n\r\n", false},
        {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
    };
    for (const Case &c : cases) {
        HttpParser parser;
        std::string buffer = c.head;
        HttpRequest request;
        ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete)
            << c.head;
        EXPECT_EQ(request.keep_alive, c.keep_alive) << c.head;
    }
}

TEST(NetHttpParser, HeaderLookupIsCaseInsensitive)
{
    HttpParser parser;
    std::string buffer = "POST / HTTP/1.1\r\n"
                         "cOnTeNt-LeNgTh: 2\r\n"
                         "\r\n"
                         "ok";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete);
    ASSERT_NE(request.findHeader("Content-Length"), nullptr);
    EXPECT_EQ(request.body, "ok");
}

TEST(NetHttpParser, PathStripsQueryString)
{
    HttpParser parser;
    std::string buffer = "GET /statz?verbose=1&pretty HTTP/1.1\r\n\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete);
    EXPECT_EQ(request.path(), "/statz");
    EXPECT_EQ(request.target, "/statz?verbose=1&pretty");
}

TEST(NetHttpParser, ErrorStateSticksUntilReset)
{
    HttpParser parser;
    std::string buffer = "GARBAGE\r\n\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Error);
    std::string fine = kSimpleGet;
    EXPECT_EQ(parser.parse(&fine, &request), Status::Error);
    parser.reset();
    EXPECT_EQ(parser.parse(&fine, &request), Status::Complete);
}

// ------------------------------------------------ serialize + client

TEST(NetHttpSerialize, ResponseRoundTripsThroughResponseParser)
{
    HttpResponse response;
    response.status = 200;
    response.body = "{\"ok\": true}";
    const std::string wire = serializeResponse(response,
                                               /*keep_alive=*/true);

    HttpParser parser;
    std::string buffer = wire;
    HttpResponse parsed;
    ASSERT_EQ(parser.parse(&buffer, &parsed),
              HttpParser::Status::Complete);
    EXPECT_EQ(parsed.status, 200);
    EXPECT_EQ(parsed.body, "{\"ok\": true}");
    EXPECT_EQ(parsed.content_type, "application/json");
    EXPECT_FALSE(parsed.close);
    EXPECT_TRUE(buffer.empty());
}

TEST(NetHttpSerialize, CloseResponsesAreMarked)
{
    const std::string wire =
        serializeResponse(errorResponse(400, "nope"),
                          /*keep_alive=*/false);
    HttpParser parser;
    std::string buffer = wire;
    HttpResponse parsed;
    ASSERT_EQ(parser.parse(&buffer, &parsed),
              HttpParser::Status::Complete);
    EXPECT_EQ(parsed.status, 400);
    EXPECT_TRUE(parsed.close);
}

TEST(NetHttpSerialize, ErrorResponseCarriesStructuredJson)
{
    const HttpResponse response =
        errorResponse(404, "no route for '/nope'");
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::Value::parse(response.body, &doc, &error))
        << error;
    const json::Value *err = doc.find("error");
    ASSERT_NE(err, nullptr);
    ASSERT_NE(err->find("code"), nullptr);
    EXPECT_EQ(err->find("code")->asInt64(), 404);
    EXPECT_EQ(err->find("message")->asString(),
              "no route for '/nope'");
    EXPECT_EQ(err->find("status")->asString(), "Not Found");
}

TEST(NetHttpSerialize, ErrorBodyEscapesMessage)
{
    const std::string body =
        jsonErrorBody(400, "bad \"quote\" and\nnewline");
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::Value::parse(body, &doc, &error)) << error;
    EXPECT_EQ(doc.find("error")->find("message")->asString(),
              "bad \"quote\" and\nnewline");
}

TEST(NetHttpSerialize, ResponseParserRejectsChunkedFraming)
{
    // A chunked response must fail cleanly rather than parse as an
    // empty body and desync every following response.
    HttpParser parser;
    std::string buffer = "HTTP/1.1 200 OK\r\n"
                         "Transfer-Encoding: chunked\r\n"
                         "\r\n"
                         "5\r\nhello\r\n0\r\n\r\n";
    HttpResponse response;
    EXPECT_EQ(parser.parse(&buffer, &response),
              HttpParser::Status::Error);

    parser.reset();
    std::string dup = "HTTP/1.1 200 OK\r\n"
                      "Content-Length: 2\r\n"
                      "Content-Length: 4\r\n"
                      "\r\n"
                      "okok";
    EXPECT_EQ(parser.parse(&dup, &response),
              HttpParser::Status::Error);
}

TEST(NetHttpSerialize, ResponseLimitsMatchTheRequestSide)
{
    HttpLimits limits;
    limits.max_header_bytes = 128;
    limits.max_body_bytes = 64;

    // A terminated header section over the limit is as fatal on a
    // response as on a request, and the error state sticks.
    HttpParser parser(limits);
    std::string big = "HTTP/1.1 200 OK\r\nX-Filler: " +
                      std::string(256, 'x') + "\r\n\r\n";
    HttpResponse response;
    ASSERT_EQ(parser.parse(&big, &response), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
    EXPECT_NE(parser.errorMessage().find("response"), std::string::npos)
        << parser.errorMessage();
    std::string fine = serializeResponse(HttpResponse{}, true);
    EXPECT_EQ(parser.parse(&fine, &response), Status::Error);
    parser.reset();
    EXPECT_EQ(parser.parse(&fine, &response), Status::Complete);

    // An oversized body is reported as the response's, not a request's.
    std::string long_body = "HTTP/1.1 200 OK\r\n"
                            "Content-Length: 65\r\n"
                            "\r\n";
    ASSERT_EQ(parser.parse(&long_body, &response), Status::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
    EXPECT_EQ(parser.errorMessage().find("request body"),
              std::string::npos)
        << parser.errorMessage();
    EXPECT_NE(parser.errorMessage().find("response body"),
              std::string::npos)
        << parser.errorMessage();
}

TEST(NetHttpSerialize, RequestRoundTripsThroughRequestParser)
{
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/evaluate";
    request.headers.push_back({"Host", "localhost:1"});
    request.body = "{\"version\": 1}";
    const std::string wire = serializeRequest(request);

    HttpParser parser;
    std::string buffer = wire;
    HttpRequest parsed;
    ASSERT_EQ(parser.parse(&buffer, &parsed), Status::Complete);
    EXPECT_EQ(parsed.method, "POST");
    EXPECT_EQ(parsed.target, "/v1/evaluate");
    EXPECT_EQ(parsed.body, "{\"version\": 1}");
}

TEST(NetHttpSerialize, RejectsFieldNamesThatAreNotTokens)
{
    // A bare LF inside a field line must not smuggle a second field
    // past us: a peer that ends lines at a bare LF would see chunked
    // framing where we see one field named "X\nTransfer-Encoding".
    const std::string smuggled[] = {
        std::string("GET / HTTP/1.1\r\nX\nTransfer-Encoding: chunked"
                    "\r\n\r\n"),
        std::string("GET / HTTP/1.1\r\nX-A: 1\rX-B: 2\r\n\r\n"),
        std::string("GET / HTTP/1.1\r\nX-A: 1\nX-B: 2\r\n\r\n"),
        std::string("GET / HTTP/1.1\r\nX-A: a") + '\0' + "b\r\n\r\n",
        std::string("GET / HTTP/1.1\r\nX(A): 1\r\n\r\n"),
        std::string("GET / HTTP/1.1\r\nX\x80: 1\r\n\r\n"),
    };
    for (const std::string &wire : smuggled) {
        HttpParser parser;
        std::string buffer = wire;
        HttpRequest request;
        EXPECT_EQ(parser.parse(&buffer, &request), Status::Error)
            << wire;
        EXPECT_EQ(parser.errorStatus(), 400) << wire;
        EXPECT_EQ(parser.errorMessage(), "malformed header field")
            << wire;
    }

    // Every token character stays a legal field-name character.
    HttpParser parser;
    std::string buffer = "GET / HTTP/1.1\r\n"
                         "!#$%&'*+-.^_`|~09azAZ: v\tw\r\n\r\n";
    HttpRequest request;
    ASSERT_EQ(parser.parse(&buffer, &request), Status::Complete);
    ASSERT_EQ(request.headers.size(), 1u);
    EXPECT_EQ(request.headers[0].name, "!#$%&'*+-.^_`|~09azAZ");
    EXPECT_EQ(request.headers[0].value, "v\tw");
}

// -------------------------------------------------------------- socket

TEST(NetSocket, ListenerHandsOutEphemeralPortAndMovesBytes)
{
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0, &error)) << error;
    EXPECT_GT(listener.port(), 0);

    Socket client = connectTcp("127.0.0.1", listener.port(), &error);
    ASSERT_TRUE(client.valid()) << error;
    client.setTimeouts(5000);

    Socket accepted;
    // The non-blocking listener may see the connection a beat later.
    for (int i = 0; i < 500; ++i) {
        if (listener.accept(&accepted) == IoStatus::Ok)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(accepted.valid());

    const std::string ping = "ping";
    ASSERT_TRUE(client.sendAll(ping.data(), ping.size()));
    char buf[16];
    size_t n = 0;
    for (int i = 0; i < 500; ++i) {
        const IoStatus status =
            accepted.recvSome(buf, sizeof(buf), &n);
        if (status == IoStatus::Ok)
            break;
        ASSERT_EQ(status, IoStatus::WouldBlock);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(std::string(buf, n), "ping");

    // And the other direction, accepted -> client (blocking read).
    ASSERT_TRUE(accepted.sendAll("pong", 4));
    size_t m = 0;
    ASSERT_EQ(client.recvSome(buf, sizeof(buf), &m), IoStatus::Ok);
    EXPECT_EQ(std::string(buf, m), "pong");

    // EOF is reported as such, not as an error.
    client.close();
    for (int i = 0; i < 500; ++i) {
        const IoStatus status =
            accepted.recvSome(buf, sizeof(buf), &n);
        if (status == IoStatus::Eof)
            break;
        ASSERT_EQ(status, IoStatus::WouldBlock);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

TEST(NetSocket, ConnectToClosedPortFails)
{
    // Grab an ephemeral port, then close the listener so the port is
    // (momentarily) known-dead.
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0, &error)) << error;
    const uint16_t port = listener.port();
    listener.close();

    Socket sock = connectTcp("127.0.0.1", port, &error);
    EXPECT_FALSE(sock.valid());
    EXPECT_FALSE(error.empty());
}

TEST(NetSocket, TimedConnectReportsRefusedOutcome)
{
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0, &error)) << error;
    const uint16_t port = listener.port();
    listener.close();

    ConnectOutcome outcome = ConnectOutcome::Ok;
    Socket sock = connectTcp("127.0.0.1", port, /*timeout_ms=*/1000,
                             &outcome, &error);
    EXPECT_FALSE(sock.valid());
    EXPECT_EQ(outcome, ConnectOutcome::Refused);
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------- typed client errors
//
// The sweep coordinator's retry-vs-failover policy keys off
// ClientErrorKind, so the kinds must be distinguishable: a refused
// connect (nothing listening -- fail over immediately) must not look
// like a timeout (shard alive but slow or hung -- retry).

TEST(NetHttpClient, RefusedConnectionIsTyped)
{
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(listener.listen("127.0.0.1", 0, &error)) << error;
    const uint16_t port = listener.port();
    listener.close();

    HttpClient client("127.0.0.1", port);
    HttpResponse response;
    ClientError typed;
    EXPECT_FALSE(
        client.request("GET", "/healthz", "", &response, &typed));
    EXPECT_EQ(typed.kind, ClientErrorKind::ConnectRefused);
    EXPECT_FALSE(typed.message.empty());
}

TEST(NetHttpClient, ResponseTimeoutIsTyped)
{
    // The backlog completes the handshake, but nothing ever reads or
    // answers: the per-operation timeout must fire as a typed
    // Timeout, not hang or masquerade as a connect failure.
    TcpListener black_hole;
    std::string error;
    ASSERT_TRUE(black_hole.listen("127.0.0.1", 0, &error)) << error;

    HttpClient::Options options;
    options.host = "127.0.0.1";
    options.port = black_hole.port();
    options.timeout_ms = 150;
    HttpClient client(std::move(options));
    HttpResponse response;
    ClientError typed;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(
        client.request("GET", "/healthz", "", &response, &typed));
    EXPECT_EQ(typed.kind, ClientErrorKind::Timeout);
    EXPECT_NE(typed.message.find("timed out"), std::string::npos)
        << typed.message;
    // ... and it fired in bounded time (well under the test timeout).
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
}

TEST(NetHttpClient, RequestDeadlineCapsTheWholeResponse)
{
    // Per-operation timeouts alone cannot bound a response that
    // trickles forever; the per-request deadline must.
    TcpListener black_hole;
    std::string error;
    ASSERT_TRUE(black_hole.listen("127.0.0.1", 0, &error)) << error;

    HttpClient::Options options;
    options.host = "127.0.0.1";
    options.port = black_hole.port();
    options.timeout_ms = 0; // op timeouts off: the deadline must act
    options.request_timeout_ms = 200;
    HttpClient client(std::move(options));
    HttpResponse response;
    ClientError typed;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(
        client.request("POST", "/v1/sweep", "{}", &response, &typed));
    EXPECT_EQ(typed.kind, ClientErrorKind::Timeout);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
}

} // namespace
} // namespace net
} // namespace vtrain
