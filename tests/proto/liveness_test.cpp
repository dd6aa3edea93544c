// Failure detection and recovery (paper Section VI-B: the implementation
// "leverages Squid's built-in support to detect failure and recovery of
// neighbor proxies, and reinitializes a failed neighbor's bit array when
// it recovers") plus the ICP_OP_HIT_OBJ inline-object optimization.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

MiniProxyConfig fast_liveness_cfg(NodeId id, Endpoint origin) {
    MiniProxyConfig cfg;
    cfg.id = id;
    cfg.origin = origin;
    cfg.mode = ShareMode::summary;
    cfg.update_threshold = 0.0;
    cfg.keepalive_interval = 60ms;
    cfg.liveness_strikes = 3;
    return cfg;
}

HttpLiteStatus get(MiniProxy& p, const std::string& url, std::uint64_t version = 0,
                   std::uint64_t size = 100) {
    TcpConnection c = TcpConnection::connect(p.http_endpoint());
    c.write_all(format_request({false, url, version, size}));
    const auto line = c.read_line();
    EXPECT_TRUE(line.has_value());
    const auto header = parse_response_header(*line);
    EXPECT_TRUE(header.has_value());
    c.discard_exact(header->size);
    return header->status;
}

TEST(Liveness, KeepalivesFlowBetweenPeers) {
    OriginServer origin({});
    auto a = std::make_unique<MiniProxy>(fast_liveness_cfg(1, origin.endpoint()));
    auto b = std::make_unique<MiniProxy>(fast_liveness_cfg(2, origin.endpoint()));
    const test::MetricDelta counts;
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();
    std::this_thread::sleep_for(400ms);
    EXPECT_GT(counts("sc_proxy_keepalives_sent_total", 1), 2u);
    EXPECT_GT(counts("sc_proxy_keepalives_received_total", 1), 2u);
    EXPECT_EQ(counts("sc_proxy_sibling_death_events_total", 1), 0u);  // both healthy
    a->stop();
    b->stop();
    origin.stop();
}

TEST(Liveness, DeadSiblingIsDetectedAndSkipped) {
    OriginServer origin({});
    auto a = std::make_unique<MiniProxy>(fast_liveness_cfg(1, origin.endpoint()));
    auto b = std::make_unique<MiniProxy>(fast_liveness_cfg(2, origin.endpoint()));
    const test::MetricDelta counts;
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();

    // b caches a document and advertises it.
    EXPECT_EQ(get(*b, "http://dies/with-b"), HttpLiteStatus::miss);
    std::this_thread::sleep_for(150ms);

    // Kill b. After 3 missed keepalive intervals a declares it dead and
    // drops its summary replica.
    b->stop();
    b.reset();
    std::this_thread::sleep_for(500ms);
    EXPECT_GE(counts("sc_proxy_sibling_death_events_total", 1), 1u);

    // A request that b could have served now goes straight to the origin
    // without any query (the replica is gone) and without hanging.
    const auto before = counts("sc_proxy_icp_queries_sent_total", 1);
    EXPECT_EQ(get(*a, "http://dies/with-b"), HttpLiteStatus::miss);
    EXPECT_EQ(counts("sc_proxy_icp_queries_sent_total", 1), before);
    a->stop();
    origin.stop();
}

TEST(Liveness, RecoveredSiblingGetsFullSummary) {
    OriginServer origin({});
    auto a = std::make_unique<MiniProxy>(fast_liveness_cfg(1, origin.endpoint()));
    const test::MetricDelta counts;

    // Remember b's ports so the "restarted" instance can reuse them.
    std::uint16_t b_http = 0, b_icp = 0;
    {
        auto b = std::make_unique<MiniProxy>(fast_liveness_cfg(2, origin.endpoint()));
        b_http = b->http_endpoint().port;
        b_icp = b->icp_endpoint().port;
        a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
        b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
        a->start();
        b->start();
        EXPECT_EQ(get(*a, "http://survives/on-a"), HttpLiteStatus::miss);
        std::this_thread::sleep_for(150ms);
        b->stop();
    }  // b is gone

    std::this_thread::sleep_for(500ms);
    ASSERT_GE(counts("sc_proxy_sibling_death_events_total", 1), 1u);

    // Restart b on the same ports; its boot DIRREQ reaches a, which must
    // mark it recovered and answer with its full summary.
    MiniProxyConfig cfg_b2 = fast_liveness_cfg(2, origin.endpoint());
    cfg_b2.http_port = b_http;
    cfg_b2.icp_port = b_icp;
    auto b2 = std::make_unique<MiniProxy>(cfg_b2);
    const test::MetricDelta b2_counts;  // b's phase-1 updates are not b2's
    b2->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    b2->start();
    std::this_thread::sleep_for(400ms);

    EXPECT_GE(counts("sc_proxy_sibling_recovery_events_total", 1), 1u);
    EXPECT_GE(b2_counts("sc_node_updates_applied_total", 2), 1u);  // the recovery refresh
    // And b2 can immediately exploit it: a's document is a remote hit.
    EXPECT_EQ(get(*b2, "http://survives/on-a"), HttpLiteStatus::remote_hit);

    a->stop();
    b2->stop();
    origin.stop();
}

TEST(HitObj, SmallObjectsRideInline) {
    OriginServer origin({});
    MiniProxyConfig cfg1 = fast_liveness_cfg(1, origin.endpoint());
    MiniProxyConfig cfg2 = fast_liveness_cfg(2, origin.endpoint());
    cfg1.hit_obj_max_bytes = 4096;
    cfg2.hit_obj_max_bytes = 4096;
    auto a = std::make_unique<MiniProxy>(cfg1);
    auto b = std::make_unique<MiniProxy>(cfg2);
    const test::MetricDelta counts;
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();

    EXPECT_EQ(get(*a, "http://tiny/doc", 0, 500), HttpLiteStatus::miss);
    std::this_thread::sleep_for(150ms);
    EXPECT_EQ(get(*b, "http://tiny/doc", 0, 500), HttpLiteStatus::remote_hit);
    EXPECT_EQ(counts("sc_proxy_hit_obj_served_total", 1), 1u);
    EXPECT_EQ(counts("sc_proxy_hit_obj_used_total", 2), 1u);
    EXPECT_EQ(counts("sc_proxy_sibling_fetches_total", 2), 0u);  // no TCP fetch needed

    // Large objects still use the TCP path.
    EXPECT_EQ(get(*a, "http://big/doc", 0, 50'000), HttpLiteStatus::miss);
    std::this_thread::sleep_for(150ms);
    EXPECT_EQ(get(*b, "http://big/doc", 0, 50'000), HttpLiteStatus::remote_hit);
    EXPECT_EQ(counts("sc_proxy_sibling_fetches_total", 2), 1u);

    a->stop();
    b->stop();
    origin.stop();
}

TEST(HitObj, StaleInlineCopyIsRejected) {
    OriginServer origin({});
    MiniProxyConfig cfg1 = fast_liveness_cfg(1, origin.endpoint());
    MiniProxyConfig cfg2 = fast_liveness_cfg(2, origin.endpoint());
    cfg1.hit_obj_max_bytes = 4096;
    cfg2.hit_obj_max_bytes = 4096;
    auto a = std::make_unique<MiniProxy>(cfg1);
    auto b = std::make_unique<MiniProxy>(cfg2);
    const test::MetricDelta counts;
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    b->add_sibling(1, a->icp_endpoint(), a->http_endpoint());
    a->start();
    b->start();

    EXPECT_EQ(get(*a, "http://versioned/doc", 1, 300), HttpLiteStatus::miss);
    std::this_thread::sleep_for(150ms);
    // b wants version 2; a's inline copy is version 1 -> must not be used.
    EXPECT_EQ(get(*b, "http://versioned/doc", 2, 300), HttpLiteStatus::miss);
    EXPECT_EQ(counts("sc_proxy_hit_obj_used_total", 2), 0u);
    EXPECT_EQ(origin.requests_served(), 2u);

    a->stop();
    b->stop();
    origin.stop();
}

}  // namespace
}  // namespace sc
