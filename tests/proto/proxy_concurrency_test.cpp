// Regression tests for the event-loop + worker-pool proxy front end:
// the pfds out-of-bounds accept bug, the partial-line (slow-loris) stall,
// stale ICP reply confusion, and the concurrency the worker pool buys.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "icp/icp_message.hpp"
#include "icp/udp_socket.hpp"
#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

struct ProxyRig {
    std::unique_ptr<OriginServer> origin;
    std::unique_ptr<MiniProxy> proxy;
    test::MetricDelta counts;  ///< baseline: the proxy just constructed

    explicit ProxyRig(int workers, ShareMode mode = ShareMode::none,
                      std::chrono::milliseconds origin_delay = 0ms,
                      std::chrono::milliseconds query_timeout = 100ms) {
        origin = std::make_unique<OriginServer>(
            OriginServer::Config{.port = 0, .reply_delay = origin_delay});
        MiniProxyConfig cfg;
        cfg.id = 1;
        cfg.origin = origin->endpoint();
        cfg.mode = mode;
        cfg.workers = workers;
        cfg.query_timeout = query_timeout;
        proxy = std::make_unique<MiniProxy>(cfg);
        counts = test::MetricDelta();
    }

    void start() { proxy->start(); }

    ~ProxyRig() {
        proxy->stop();
        origin->stop();
    }

    [[nodiscard]] TcpConnection connect() const {
        return TcpConnection::connect(proxy->http_endpoint());
    }

    HttpLiteStatus get(TcpConnection& c, const std::string& url,
                       std::uint64_t size = 100) {
        c.write_all(format_request({false, url, 0, size}));
        return read_response(c);
    }

    static HttpLiteStatus read_response(TcpConnection& c) {
        const auto line = c.read_line();
        if (!line) throw std::runtime_error("proxy closed connection");
        const auto header = parse_response_header(*line);
        if (!header) throw std::runtime_error("bad header");
        c.discard_exact(header->size);
        return header->status;
    }
};

TEST(ProxyConcurrency, PartialRequestLineDoesNotStallOtherClients) {
    // The old loop called read_line() as soon as a client fd was readable
    // and blocked inside fill_buffer() until the newline arrived — one
    // slow-loris client wedged every other request. Even at workers=1 the
    // rewritten loop parks the partial bytes and serves everyone else.
    ProxyRig rig(/*workers=*/1);
    rig.start();

    TcpConnection slow = rig.connect();
    slow.write_all("GET http://slow/partial");  // no newline: half a line
    std::this_thread::sleep_for(50ms);          // let the loop see the bytes

    TcpConnection fast = rig.connect();
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(rig.get(fast, "http://fast/doc"), HttpLiteStatus::miss);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);

    // The parked client finishes its line later and still gets served.
    slow.write_all(" 0 100\r\n");
    EXPECT_EQ(ProxyRig::read_response(slow), HttpLiteStatus::miss);
}

TEST(ProxyConcurrency, AcceptChurnWithIdlePersistentConnections) {
    // Regression for the pfds out-of-bounds read: accepting mid-iteration
    // grew `clients` while the loop still indexed pfds[2+i] from the old
    // snapshot. Keep a pool of idle persistent connections polled every
    // iteration while churning accepts; ASan flags the old indexing.
    ProxyRig rig(/*workers=*/2);
    rig.start();

    std::vector<TcpConnection> idle;
    for (int i = 0; i < 20; ++i) idle.push_back(rig.connect());
    for (int round = 0; round < 15; ++round) {
        TcpConnection churn = rig.connect();  // new accept every round
        EXPECT_EQ(rig.get(churn, "http://churn/" + std::to_string(round)),
                  HttpLiteStatus::miss);
        // An idle connection from the standing pool must still be live.
        EXPECT_EQ(rig.get(idle[static_cast<std::size_t>(round)], "http://churn/0"),
                  HttpLiteStatus::local_hit);
    }
}

TEST(ProxyConcurrency, PipelinedRequestsOnOneConnectionStayOrdered) {
    // A connection is owned by exactly one worker at a time, so responses
    // come back in request order even with a multi-worker pool.
    ProxyRig rig(/*workers=*/4);
    rig.start();
    TcpConnection c = rig.connect();
    std::string burst;
    burst += format_request({false, "http://pipe/a", 0, 100});
    burst += format_request({false, "http://pipe/a", 0, 100});
    burst += format_request({false, "http://pipe/b", 0, 100});
    c.write_all(burst);
    EXPECT_EQ(ProxyRig::read_response(c), HttpLiteStatus::miss);
    EXPECT_EQ(ProxyRig::read_response(c), HttpLiteStatus::local_hit);
    EXPECT_EQ(ProxyRig::read_response(c), HttpLiteStatus::miss);
}

TEST(ProxyConcurrency, HalfClosedClientStillGetsBufferedRequestsServed) {
    ProxyRig rig(/*workers=*/1);
    rig.start();
    TcpConnection c = rig.connect();
    c.write_all(format_request({false, "http://halfclose/a", 0, 64}));
    ::shutdown(c.fd(), SHUT_WR);  // EOF after a complete buffered line
    EXPECT_EQ(ProxyRig::read_response(c), HttpLiteStatus::miss);
    EXPECT_FALSE(c.read_line());  // proxy closes once the buffer drains
}

TEST(ProxyConcurrency, OversizedRequestLineGetsDropped) {
    ProxyRig rig(/*workers=*/1);
    rig.start();
    TcpConnection garbage = rig.connect();
    const std::string chunk(8 * 1024, 'a');
    try {
        // > kMaxRequestLineBytes with no newline: the proxy must hang up
        // rather than buffer forever. The write itself may fail with
        // EPIPE once the proxy closes — that is the expected outcome.
        for (int i = 0; i < 10; ++i) garbage.write_all(chunk);
    } catch (const std::exception&) {
    }
    EXPECT_FALSE(garbage.read_line());  // dropped, no ERROR reply

    // And the proxy is still healthy for well-behaved clients.
    TcpConnection ok = rig.connect();
    EXPECT_EQ(rig.get(ok, "http://after-garbage/doc"), HttpLiteStatus::miss);
}

TEST(ProxyConcurrency, WorkerPoolOverlapsSlowOriginFetches) {
    // Four distinct misses against an origin that takes 300 ms per reply:
    // serial service costs >= 1200 ms, a 4-worker pool finishes in ~300.
    ProxyRig rig(/*workers=*/4, ShareMode::none, /*origin_delay=*/300ms);
    rig.start();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
        clients.emplace_back([&rig, i] {
            TcpConnection c = rig.connect();
            EXPECT_EQ(rig.get(c, "http://parallel/" + std::to_string(i)),
                      HttpLiteStatus::miss);
        });
    }
    for (auto& t : clients) t.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, 900ms) << "origin fetches did not overlap";
    EXPECT_EQ(rig.counts("sc_proxy_origin_fetches_total", 1), 4u);
}

TEST(ProxyConcurrency, StaleIcpRepliesAreCountedNotDelivered) {
    // A "sibling" that replies with a bogus request number (a restarted
    // peer, or a reply outliving its round). The reply must be dropped
    // and counted — never treated as this round's answer.
    ProxyRig rig(/*workers=*/1, ShareMode::icp, 0ms, /*query_timeout=*/60ms);
    UdpSocket fake;  // stands in for sibling 2's ICP socket
    rig.proxy->add_sibling(2, fake.local_endpoint(), Endpoint::loopback(1));
    rig.start();

    std::thread client([&rig] {
        TcpConnection c = rig.connect();
        // Round times out (only a stale reply arrives) and falls to origin.
        EXPECT_EQ(rig.get(c, "http://stale/doc"), HttpLiteStatus::miss);
    });

    std::optional<Datagram> query;
    for (int i = 0; i < 50 && !query; ++i) {
        auto d = fake.receive(100);
        if (!d) continue;
        if (decode_header(d->payload).opcode == IcpOpcode::query) query = std::move(d);
    }
    ASSERT_TRUE(query.has_value()) << "proxy never queried the sibling";
    const IcpQuery q = decode_query(query->payload);

    IcpReply stale;
    stale.opcode = IcpOpcode::miss;
    stale.request_number = q.request_number + 7777;  // some other round's number
    stale.sender_host = 2;
    stale.url = q.url;
    const auto payload = encode_reply(stale);
    fake.send_to(query->from, payload);
    client.join();

    // The drop is counted once the datagram has been processed.
    (void)test::eventually([&] { return rig.counts("sc_icp_stale_replies_total") >= 1; }, 1s);
    EXPECT_EQ(rig.counts("sc_icp_stale_replies_total"), 1u);
    EXPECT_EQ(rig.counts("sc_proxy_icp_replies_received_total", 1), 0u);  // never surfaced to the round
    EXPECT_GE(rig.counts("sc_proxy_icp_queries_sent_total", 1), 1u);
}

TEST(ProxyConcurrency, WorkerGaugesReturnToZeroWhenIdle) {
    ProxyRig rig(/*workers=*/2);
    rig.start();
    {
        TcpConnection c = rig.connect();
        EXPECT_EQ(rig.get(c, "http://gauge/doc"), HttpLiteStatus::miss);
    }
    // The worker decrements the inflight gauge after writing the response,
    // so the client can observe the reply first — poll briefly for idle.
    obs::MetricsSnapshot snap;
    for (int i = 0; i < 50; ++i) {
        snap = obs::metrics().snapshot();
        const auto* q = snap.find("sc_proxy_worker_queue_depth");
        const auto* f = snap.find("sc_proxy_inflight_requests");
        if (q != nullptr && f != nullptr && q->gauge == 0.0 && f->gauge == 0.0) break;
        std::this_thread::sleep_for(20ms);
    }
    const auto* queue = snap.find("sc_proxy_worker_queue_depth");
    const auto* inflight = snap.find("sc_proxy_inflight_requests");
    ASSERT_NE(queue, nullptr);
    ASSERT_NE(inflight, nullptr);
    EXPECT_EQ(queue->gauge, 0.0);
    EXPECT_EQ(inflight->gauge, 0.0);
}

}  // namespace
}  // namespace sc
