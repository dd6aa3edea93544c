// HTTP/1.1 keep-alive conformance for the proxy front end, run against BOTH
// readiness backends: persistent connections, pipelined ordering, Connection
// negotiation, idle reaping, max-requests rotation, and half-close handling
// must be identical whether the loop waits in poll(2) or epoll.
//
// The HttpSessionParser is pure state (no I/O), so its grammar corner cases
// are unit-tested here too, next to the end-to-end behavior they produce.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_backend.hpp"
#include "proto/http_session.hpp"
#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

std::vector<net::EventBackendKind> kinds_under_test() {
    std::vector<net::EventBackendKind> kinds = {net::EventBackendKind::poll};
#ifdef __linux__
    kinds.push_back(net::EventBackendKind::epoll);
#endif
    return kinds;
}

std::string lite_get(const std::string& url, std::uint64_t size) {
    return format_request({false, url, 0, size});
}

/// Read one lite response (header line + exact body).
std::pair<HttpLiteStatus, std::string> read_lite(TcpConnection& conn) {
    const auto line = conn.read_line();
    if (!line) throw std::runtime_error("EOF instead of a lite response");
    const auto header = parse_response_header(*line);
    if (!header) throw std::runtime_error("malformed lite response: " + *line);
    std::string body;
    conn.read_exact(header->size, body);
    return {header->status, std::move(body)};
}

struct HttpResponse {
    std::string status_line;
    std::map<std::string, std::string> headers;  ///< keys lowercased
    std::string body;
};

/// Read one HTTP/1.1 response; nullopt on EOF before the status line.
std::optional<HttpResponse> read_http(TcpConnection& conn) {
    HttpResponse r;
    auto line = conn.read_line();
    if (!line) return std::nullopt;
    r.status_line = *line;
    while (true) {
        auto h = conn.read_line();
        if (!h) throw std::runtime_error("EOF inside a header block");
        if (h->empty()) break;
        const auto colon = h->find(':');
        if (colon == std::string::npos) continue;
        std::string key = h->substr(0, colon);
        for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        std::string value = h->substr(colon + 1);
        value.erase(0, value.find_first_not_of(" \t"));
        r.headers[key] = std::move(value);
    }
    const auto it = r.headers.find("content-length");
    if (it != r.headers.end())
        conn.read_exact(std::stoull(it->second), r.body);
    return r;
}

class KeepAliveTest : public ::testing::TestWithParam<net::EventBackendKind> {
protected:
    MiniProxyConfig base_config() {
        MiniProxyConfig cfg;
        cfg.id = 1;
        cfg.origin = origin_.endpoint();
        cfg.workers = 2;
        cfg.event_backend = GetParam();
        return cfg;
    }

    OriginServer origin_{OriginServer::Config{.port = 0}};
};

TEST_P(KeepAliveTest, PipelinedLiteRequestsAnswerInArrivalOrder) {
    MiniProxy proxy(base_config());
    const test::MetricDelta counts;
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    // One write, three requests: responses must come back in arrival order
    // even with two workers (a session is owned by one worker at a time).
    conn.write_all(lite_get("http://host/pipe-a", 11) +
                   lite_get("http://host/pipe-b", 22) +
                   lite_get("http://host/pipe-c", 33));
    for (const std::size_t expected : {11u, 22u, 33u}) {
        const auto [status, body] = read_lite(conn);
        EXPECT_EQ(status, HttpLiteStatus::miss);
        EXPECT_EQ(body.size(), expected);
    }
    EXPECT_EQ(counts("sc_proxy_keepalive_reuses_total", 1), 2u);
    proxy.stop();
}

TEST_P(KeepAliveTest, RepeatLiteRequestHitsTheCacheOnTheSameConnection) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/doc", 64));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    conn.write_all(lite_get("http://host/doc", 64));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::local_hit);
    proxy.stop();
}

TEST_P(KeepAliveTest, LiteGarbageGetsErrorAndTheConnectionSurvives) {
    // Historic behavior, pinned: a malformed lite line answers ERROR and
    // keeps the connection usable.
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all("NONSENSE not a request\r\n");
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::error);
    conn.write_all(lite_get("http://host/after-error", 16));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    proxy.stop();
}

TEST_P(KeepAliveTest, HttpRequestsPersistAndNegotiateConnection) {
    MiniProxy proxy(base_config());
    const test::MetricDelta counts;
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());

    conn.write_all("GET /doc?size=64 HTTP/1.1\r\nHost: test\r\n\r\n");
    auto first = read_http(conn);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status_line, "HTTP/1.1 200 OK");
    EXPECT_EQ(first->headers["x-sc-status"], "MISS");
    EXPECT_EQ(first->headers["connection"], "keep-alive");
    EXPECT_EQ(first->body.size(), 64u);

    // Same document again on the SAME connection: a local hit this time.
    conn.write_all("GET /doc?size=64 HTTP/1.1\r\nHost: test\r\n\r\n");
    auto second = read_http(conn);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->headers["x-sc-status"], "LOCAL_HIT");
    EXPECT_EQ(counts("sc_proxy_keepalive_reuses_total", 1), 1u);
    proxy.stop();
}

TEST_P(KeepAliveTest, ConnectionCloseMidStreamEndsAfterThatResponse) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    // Pipelined: the first keeps the connection, the second asks to close.
    conn.write_all(
        "GET /a?size=8 HTTP/1.1\r\n\r\n"
        "GET /b?size=8 HTTP/1.1\r\nConnection: close\r\n\r\n");
    auto first = read_http(conn);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->headers["connection"], "keep-alive");
    auto second = read_http(conn);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->headers["connection"], "close");
    EXPECT_FALSE(conn.read_line().has_value()) << "connection must close after the reply";
    proxy.stop();
}

TEST_P(KeepAliveTest, Http10DefaultsToClose) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all("GET /legacy?size=8 HTTP/1.0\r\n\r\n");
    auto resp = read_http(conn);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->headers["connection"], "close");
    EXPECT_FALSE(conn.read_line().has_value());
    proxy.stop();
}

TEST_P(KeepAliveTest, LiteAndHttpGrammarsShareOneConnection) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/mixed", 32));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    conn.write_all("GET /mixed-http?size=16 HTTP/1.1\r\n\r\n");
    auto resp = read_http(conn);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->body.size(), 16u);
    conn.write_all(lite_get("http://host/mixed", 32));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::local_hit);
    proxy.stop();
}

TEST_P(KeepAliveTest, IdleSessionsAreReapedQuietly) {
    auto cfg = base_config();
    cfg.idle_timeout = 50ms;
    MiniProxy proxy(cfg);
    const test::MetricDelta counts;
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/then-idle", 8));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    // Park the connection past the timeout: the proxy must close it with
    // no response bytes (read_line sees clean EOF, not junk).
    EXPECT_FALSE(conn.read_line().has_value());
    EXPECT_GE(counts("sc_proxy_idle_closes_total", 1), 1u);
    proxy.stop();
}

TEST_P(KeepAliveTest, IdleTimeoutZeroNeverReaps) {
    auto cfg = base_config();
    cfg.idle_timeout = 0ms;
    MiniProxy proxy(cfg);
    const test::MetricDelta counts;
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/immortal", 8));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    std::this_thread::sleep_for(120ms);
    conn.write_all(lite_get("http://host/immortal", 8));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::local_hit);
    EXPECT_EQ(counts("sc_proxy_idle_closes_total", 1), 0u);
    proxy.stop();
}

TEST_P(KeepAliveTest, MaxRequestsRotatesTheConnection) {
    auto cfg = base_config();
    cfg.max_requests_per_connection = 2;
    MiniProxy proxy(cfg);
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    // Three pipelined requests: two served, then the rotation closes the
    // connection (the third is the client's to retry on a fresh one).
    conn.write_all(lite_get("http://host/rot-a", 8) + lite_get("http://host/rot-b", 8) +
                   lite_get("http://host/rot-c", 8));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    EXPECT_FALSE(conn.read_line().has_value()) << "rotation must close at the cap";

    // The HTTP framing advertises the rotation on the final response.
    TcpConnection conn2 = TcpConnection::connect(proxy.http_endpoint());
    conn2.write_all("GET /rot-d?size=8 HTTP/1.1\r\n\r\nGET /rot-e?size=8 HTTP/1.1\r\n\r\n");
    auto first = read_http(conn2);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->headers["connection"], "keep-alive");
    auto second = read_http(conn2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->headers["connection"], "close");
    EXPECT_FALSE(conn2.read_line().has_value());
    proxy.stop();
}

TEST_P(KeepAliveTest, HalfCloseStillGetsTheBufferedResponse) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/half-close", 128));
    // Shut the write side: the proxy sees EOF while the request is in
    // flight. It must still deliver the response, then close — and the
    // proxy itself must stay healthy for other clients.
    ASSERT_EQ(::shutdown(conn.fd(), SHUT_WR), 0);
    const auto [status, body] = read_lite(conn);
    EXPECT_EQ(status, HttpLiteStatus::miss);
    EXPECT_EQ(body.size(), 128u);
    EXPECT_FALSE(conn.read_line().has_value());

    TcpConnection conn2 = TcpConnection::connect(proxy.http_endpoint());
    conn2.write_all(lite_get("http://host/after-half-close", 8));
    EXPECT_EQ(read_lite(conn2).first, HttpLiteStatus::miss);
    proxy.stop();
}

TEST_P(KeepAliveTest, BurstOfAbruptDisconnectsNeverCrashesTheLoop) {
    MiniProxy proxy(base_config());
    proxy.start();
    for (int round = 0; round < 30; ++round) {
        TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
        switch (round % 3) {
            case 0:  // connect-and-slam
                break;
            case 1:  // half a request line, then gone
                conn.write_all("GET http://host/partial");
                break;
            case 2:  // mid-header-block abort
                conn.write_all("GET /aborted?size=8 HTTP/1.1\r\nHost: x\r\n");
                break;
        }
        conn.close();
    }
    // The loop survived the burst and still serves.
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all(lite_get("http://host/survivor", 8));
    EXPECT_EQ(read_lite(conn).first, HttpLiteStatus::miss);
    proxy.stop();
}

TEST_P(KeepAliveTest, AdminEndpointHonorsKeepAlive) {
    MiniProxy proxy(base_config());
    proxy.start();
    TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
    conn.write_all("GET /__metrics HTTP/1.1\r\n\r\n");
    auto resp = read_http(conn);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status_line, "HTTP/1.1 200 OK");
    EXPECT_EQ(resp->headers["connection"], "keep-alive");
    EXPECT_NE(resp->body.find("sc_proxy_open_sessions"), std::string::npos);
    EXPECT_NE(resp->body.find("sc_event_backend_wait_seconds"), std::string::npos);
    // Keep-alive honored: the admin endpoint serves again on the same
    // connection (scrapers poll it).
    conn.write_all("GET /__metrics HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(read_http(conn).has_value());
    proxy.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, KeepAliveTest, ::testing::ValuesIn(kinds_under_test()),
    [](const ::testing::TestParamInfo<net::EventBackendKind>& info) {
        return net::event_backend_kind_name(info.param);
    });

// --- scale: park thousands of idle keep-alive sessions ---------------------

TEST(KeepAliveScale, ActiveTrafficIsServedWithThousandsOfIdleSessions) {
    // The epoll backend's reason to exist: wait cost is O(ready), so parked
    // keep-alive sessions are free. Default 10k idle connections; CI's
    // sanitizer jobs scale down via SC_KEEPALIVE_SESSIONS.
    int target = 10'000;
    if (const char* env = std::getenv("SC_KEEPALIVE_SESSIONS")) target = std::atoi(env);
    ASSERT_GT(target, 0);

    // Each parked session costs two fds in this process (client + proxy
    // end). Raise RLIMIT_NOFILE if the soft limit is short, and scale the
    // test to whatever the hard limit allows rather than failing.
    rlimit lim{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
    const rlim_t need = 2 * static_cast<rlim_t>(target) + 512;
    if (lim.rlim_cur < need) {
        rlimit raised = lim;
        raised.rlim_cur = lim.rlim_max == RLIM_INFINITY
                              ? need
                              : std::min<rlim_t>(need, lim.rlim_max);
        (void)::setrlimit(RLIMIT_NOFILE, &raised);
        ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
    }
    if (lim.rlim_cur < need) {
        target = static_cast<int>((lim.rlim_cur - 512) / 2);
        if (target < 128)
            GTEST_SKIP() << "RLIMIT_NOFILE too low for a meaningful session count";
    }

    OriginServer origin(OriginServer::Config{.port = 0});
    MiniProxyConfig cfg;
    cfg.id = 1;
    cfg.origin = origin.endpoint();
    cfg.workers = 2;
    cfg.idle_timeout = std::chrono::milliseconds(0);  // park forever
#ifdef __linux__
    cfg.event_backend = net::EventBackendKind::epoll;
#endif
    MiniProxy proxy(cfg);
    proxy.start();

    std::vector<TcpConnection> parked;
    parked.reserve(static_cast<std::size_t>(target));
    for (int i = 0; i < target; ++i) {
        for (int attempt = 0;; ++attempt) {
            try {
                parked.push_back(TcpConnection::connect(proxy.http_endpoint()));
                break;
            } catch (const std::exception&) {
                // Transient accept-queue pressure; give the loop a breath.
                if (attempt >= 100) throw;
                std::this_thread::sleep_for(2ms);
            }
        }
    }

    // With every parked session idle, active traffic on the first and last
    // connections must still round-trip promptly.
    const auto start = std::chrono::steady_clock::now();
    parked.front().write_all(lite_get("http://host/scale-first", 64));
    EXPECT_EQ(read_lite(parked.front()).first, HttpLiteStatus::miss);
    parked.back().write_all(lite_get("http://host/scale-last", 64));
    EXPECT_EQ(read_lite(parked.back()).first, HttpLiteStatus::miss);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s)
        << "active requests stalled behind " << target << " idle sessions";

    parked.clear();  // mass disconnect: the loop absorbs 10k hangups
    TcpConnection probe = TcpConnection::connect(proxy.http_endpoint());
    probe.write_all(lite_get("http://host/scale-after", 8));
    EXPECT_EQ(read_lite(probe).first, HttpLiteStatus::miss);
    proxy.stop();
    origin.stop();
}

// --- HttpSessionParser grammar ---------------------------------------------

TEST(HttpSessionParserTest, BareLiteLineCompletesImmediately) {
    HttpSessionParser p;
    const auto r = p.on_line("GET http://host/x 3 256");
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->http_style);
    EXPECT_TRUE(r->keep_alive);
    EXPECT_FALSE(r->parse_error);
    EXPECT_EQ(r->req.url, "http://host/x");
    EXPECT_EQ(r->req.version, 3u);
    EXPECT_EQ(r->req.size, 256u);
}

TEST(HttpSessionParserTest, LiteGarbageIsAnErrorButKeepsAlive) {
    HttpSessionParser p;
    const auto r = p.on_line("GARBAGE");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->parse_error);
    EXPECT_TRUE(r->keep_alive);
}

TEST(HttpSessionParserTest, HttpRequestSpansItsHeaderBlock) {
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("GET /doc?size=128&version=7 HTTP/1.1").has_value());
    EXPECT_TRUE(p.mid_request());
    EXPECT_FALSE(p.on_line("Host: example").has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(p.mid_request());
    EXPECT_TRUE(r->http_style);
    EXPECT_TRUE(r->keep_alive);
    EXPECT_EQ(r->req.url, "/doc");
    EXPECT_EQ(r->req.size, 128u);
    EXPECT_EQ(r->req.version, 7u);
}

TEST(HttpSessionParserTest, ConnectionNegotiationFollowsTheRfcDefaults) {
    const auto final_keep_alive = [](std::string_view start,
                                     std::string_view connection_header) {
        HttpSessionParser p;
        EXPECT_FALSE(p.on_line(start).has_value());
        if (!connection_header.empty())
            EXPECT_FALSE(p.on_line(connection_header).has_value());
        const auto r = p.on_line("");
        EXPECT_TRUE(r.has_value());
        return r->keep_alive;
    };
    EXPECT_TRUE(final_keep_alive("GET /x HTTP/1.1", ""));
    EXPECT_FALSE(final_keep_alive("GET /x HTTP/1.1", "Connection: close"));
    EXPECT_FALSE(final_keep_alive("GET /x HTTP/1.1", "Connection: Keep-Alive, Close"));
    EXPECT_FALSE(final_keep_alive("GET /x HTTP/1.0", ""));
    EXPECT_TRUE(final_keep_alive("GET /x HTTP/1.0", "Connection: keep-alive"));
    EXPECT_TRUE(final_keep_alive("GET /x HTTP/1.0", "CONNECTION:   Keep-Alive"));
}

TEST(HttpSessionParserTest, NonGetMethodsAre400AndClose) {
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("POST /upload HTTP/1.1").has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->parse_error);
    EXPECT_FALSE(r->keep_alive);
}

TEST(HttpSessionParserTest, OversizedHeaderBlockAborts) {
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("GET /x HTTP/1.1").has_value());
    const std::string filler = "X-Pad: " + std::string(1000, 'a');
    std::optional<SessionRequest> r;
    for (std::size_t fed = 0; fed < kMaxHeaderBytes + 4096 && !r; fed += filler.size())
        r = p.on_line(filler);
    ASSERT_TRUE(r.has_value()) << "the header cap never fired";
    EXPECT_TRUE(r->parse_error);
    EXPECT_FALSE(r->keep_alive);
    EXPECT_FALSE(p.mid_request());
}

TEST(HttpSessionParserTest, AdminTargetsAreRecognizedInBothGrammars) {
    {
        HttpSessionParser p;
        EXPECT_FALSE(p.on_line("GET /__metrics HTTP/1.1").has_value());
        const auto r = p.on_line("");
        ASSERT_TRUE(r.has_value());
        EXPECT_TRUE(r->admin);
        EXPECT_FALSE(r->admin_trace);
        EXPECT_TRUE(r->keep_alive);
    }
    {
        HttpSessionParser p;
        EXPECT_FALSE(p.on_line("GET /__trace?limit=10 HTTP/1.1").has_value());
        const auto r = p.on_line("");
        ASSERT_TRUE(r.has_value());
        EXPECT_TRUE(r->admin);
        EXPECT_TRUE(r->admin_trace);
    }
    {
        // Bare-lite admin clients predate keep-alive and read to EOF, so
        // the parser pins close-after-response for them.
        HttpSessionParser p;
        const auto r = p.on_line("GET /__metrics 0 0");
        ASSERT_TRUE(r.has_value());
        EXPECT_TRUE(r->admin);
        EXPECT_FALSE(r->keep_alive);
        EXPECT_FALSE(r->http_style);
    }
}

TEST(HttpSessionParserTest, BlankLinesBetweenRequestsAreTolerated) {
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("").has_value());
    const auto r = p.on_line("GET http://host/x 0 8");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->req.url, "http://host/x");
}

// --- checked-decode hardening (targets travel into ICP queries and logs) ----

TEST(HttpSessionParserTest, EmbeddedWhitespaceInTargetIs400) {
    // "GET /a b HTTP/1.1" previously parsed as target "/a b"; the extra
    // token now fails target hygiene instead of reaching the hash path.
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("GET /a b HTTP/1.1").has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->parse_error);
    EXPECT_FALSE(r->keep_alive);
}

TEST(HttpSessionParserTest, ControlByteInTargetIs400) {
    HttpSessionParser p;
    EXPECT_FALSE(p.on_line("GET /a\tb HTTP/1.1").has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->parse_error);
    EXPECT_FALSE(r->keep_alive);
}

TEST(HttpSessionParserTest, OversizedTargetIs400) {
    HttpSessionParser p;
    const std::string line =
        "GET /" + std::string(kMaxTargetBytes, 'a') + " HTTP/1.1";
    EXPECT_FALSE(p.on_line(line).has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->parse_error);
    EXPECT_FALSE(r->keep_alive);
}

TEST(HttpSessionParserTest, UnsupportedHttpVersionIsHttp400NotLiteGarbage) {
    // "GET / HTTP/2.0" used to fall through to the lite grammar, answer
    // ERROR, and leave the connection open with mismatched framing. It must
    // be an HTTP-style 400 that closes.
    for (const char* line : {"GET / HTTP/2.0", "GET / HTTP/0.9", "GET / HTTP/"}) {
        HttpSessionParser p;
        const auto r = p.on_line(line);
        ASSERT_TRUE(r.has_value()) << line;
        EXPECT_TRUE(r->http_style) << line;
        EXPECT_TRUE(r->parse_error) << line;
        EXPECT_FALSE(r->keep_alive) << line;
    }
}

TEST(HttpSessionParserTest, HugeSizeParameterSaturatesInsteadOfWrapping) {
    // 2^64 + 1 == "18446744073709551617"; wrapping would alias size=1.
    HttpSessionParser p;
    EXPECT_FALSE(
        p.on_line("GET /doc?size=18446744073709551617&version=1 HTTP/1.1")
            .has_value());
    const auto r = p.on_line("");
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->parse_error);
    EXPECT_EQ(r->req.size, std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace sc
