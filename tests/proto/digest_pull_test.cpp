// The Squid Cache Digest variant (paper Section VI: "A variant of our
// approach called cache digest is also implemented in Squid 1.2b20"):
// instead of pushing deltas, each proxy periodically PULLS every sibling's
// full digest — a DIRREQ on the keepalive tick, answered by the same
// chunked DIRFULL that repairs a push stream. UDP carries the pull, so
// reliability comes from retries.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

MiniProxyConfig digest_cfg(NodeId id, Endpoint origin) {
    MiniProxyConfig cfg;
    cfg.id = id;
    cfg.origin = origin;
    cfg.mode = ShareMode::digest_pull;
    cfg.keepalive_interval = 120ms;  // the pull period
    cfg.resync_interval = 60ms;
    return cfg;
}

HttpLiteStatus get(MiniProxy& p, const std::string& url, std::uint64_t size = 100) {
    TcpConnection c = TcpConnection::connect(p.http_endpoint());
    c.write_all(format_request({false, url, 0, size}));
    const auto header = parse_response_header(*c.read_line());
    EXPECT_TRUE(header.has_value());
    c.discard_exact(header->size);
    return header->status;
}

TEST(DigestPull, DirreqIsAnsweredWithTheDigest) {
    OriginServer origin({});
    auto p = std::make_unique<MiniProxy>(digest_cfg(1, origin.endpoint()));
    const test::MetricDelta counts;
    UdpSocket fake;  // a sibling that pulls by hand
    p->add_sibling(99, fake.local_endpoint(), Endpoint::loopback(1));
    p->start();
    (void)get(*p, "http://warm/doc");

    IcpDirReq pull;
    pull.sender_host = 99;
    fake.send_to(p->icp_endpoint(), encode_dirreq(pull));

    // The answer is the chunked full bitmap; it must decode and, applied
    // to a fresh node, advertise the cached document. (p's own pulls and
    // probes toward the fake arrive on the same socket: skip them.)
    SummaryCacheNode probe(
        SummaryCacheNodeConfig{.node_id = 98, .expected_docs = 1024, .bloom = {}});
    bool applied = false;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!applied && std::chrono::steady_clock::now() < deadline) {
        const auto d = fake.receive(100);
        if (!d || decode_header(d->payload).opcode != IcpOpcode::dirfull) continue;
        const IcpDirUpdate chunk = decode_dirupdate(d->payload);
        EXPECT_TRUE(chunk.full);
        EXPECT_EQ(chunk.sender_host, 1u);
        applied = probe.apply_sibling_update(chunk) == SummaryApplyResult::applied;
    }
    ASSERT_TRUE(applied);
    EXPECT_TRUE(probe.sibling_may_contain(1, "http://warm/doc"));
    EXPECT_GE(counts("sc_proxy_resync_requests_received_total", 1), 1u);
    EXPECT_GE(counts("sc_proxy_resync_fulls_sent_total", 1), 1u);
    p->stop();
    origin.stop();
}

TEST(DigestPull, PeriodicPullEnablesRemoteHits) {
    OriginServer origin({});
    auto a = std::make_unique<MiniProxy>(digest_cfg(1, origin.endpoint()));
    auto b = std::make_unique<MiniProxy>(digest_cfg(2, origin.endpoint()));
    const test::MetricDelta counts;
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();

    EXPECT_EQ(get(*a, "http://pulled/doc"), HttpLiteStatus::miss);
    ASSERT_TRUE(test::eventually([&] { return b->sibling_replica_predicts(1, "http://pulled/doc"); }));
    EXPECT_GE(counts("sc_node_updates_applied_total", 2), 1u);
    EXPECT_EQ(get(*b, "http://pulled/doc"), HttpLiteStatus::remote_hit);
    EXPECT_EQ(origin.requests_served(), 1u);

    // Pull mode broadcasts nothing: every bitmap b applied answers a
    // DIRREQ b sent. (Read the applied count first: both only grow.)
    const std::uint64_t b_applied = counts("sc_node_updates_applied_total", 2);
    EXPECT_LE(b_applied, counts("sc_proxy_resync_requests_sent_total", 2));
    for (const NodeId id : {1u, 2u}) {
        EXPECT_EQ(counts("sc_proxy_updates_sent_total", id), 0u) << "node " << id;
        EXPECT_EQ(counts("sc_node_updates_sent_total", id), 0u) << "node " << id;
    }

    a->stop();
    b->stop();
    origin.stop();
}

TEST(DigestPull, StaleDigestCausesFalseMissNotWrongAnswer) {
    OriginServer origin({});
    MiniProxyConfig cfg_a = digest_cfg(1, origin.endpoint());
    MiniProxyConfig cfg_b = digest_cfg(2, origin.endpoint());
    cfg_b.keepalive_interval = 60s;  // b pulls once at boot, then never again
    auto a = std::make_unique<MiniProxy>(cfg_a);
    auto b = std::make_unique<MiniProxy>(cfg_b);
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();
    ASSERT_TRUE(test::eventually([&] { return b->synced_replicas() == 1; }));

    // a caches a doc AFTER b's only pull: b's digest of a is stale.
    EXPECT_EQ(get(*a, "http://late/doc"), HttpLiteStatus::miss);
    EXPECT_EQ(get(*b, "http://late/doc"), HttpLiteStatus::miss);  // false miss
    EXPECT_EQ(origin.requests_served(), 2u);

    a->stop();
    b->stop();
    origin.stop();
}

TEST(DigestPull, PullsRetryThroughLoss) {
    // The pull rides UDP, so a lost DIRREQ or a lost DIRFULL chunk must be
    // made good by a later pull.
    OriginServer origin({});
    MiniProxyConfig cfg_a = digest_cfg(1, origin.endpoint());
    MiniProxyConfig cfg_b = digest_cfg(2, origin.endpoint());
    cfg_a.udp_faults = UdpFaultConfig{.loss = 0.25, .seed = 19};
    cfg_b.udp_faults = UdpFaultConfig{.loss = 0.25, .seed = 20};
    auto a = std::make_unique<MiniProxy>(cfg_a);
    auto b = std::make_unique<MiniProxy>(cfg_b);
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();

    constexpr int kDocs = 8;
    const auto url = [](int i) { return "http://lossy/doc" + std::to_string(i); };
    for (int i = 0; i < kDocs; ++i) EXPECT_EQ(get(*a, url(i)), HttpLiteStatus::miss);
    EXPECT_TRUE(test::eventually(
        [&] {
            for (int i = 0; i < kDocs; ++i)
                if (!b->sibling_replica_predicts(1, url(i))) return false;
            return true;
        },
        20s));

    a->stop();
    b->stop();
    origin.stop();
}

TEST(DigestPull, DgetIsNoLongerARequest) {
    EXPECT_FALSE(parse_request("DGET - 0 0").has_value());
}

TEST(DigestPull, DgetOnAKeepAliveSessionGetsErrorAndTheSessionSurvives) {
    OriginServer origin({});
    MiniProxy p(digest_cfg(1, origin.endpoint()));
    p.start();
    TcpConnection c = TcpConnection::connect(p.http_endpoint());
    c.write_all("DGET - 0 0\r\n");
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "ERROR 0");
    c.write_all(format_request({false, "http://after/dget", 0, 16}));
    const auto header = parse_response_header(*c.read_line());
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->status, HttpLiteStatus::miss);
    c.discard_exact(header->size);
    p.stop();
    origin.stop();
}

}  // namespace
}  // namespace sc
