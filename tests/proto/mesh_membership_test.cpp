// Dynamic mesh membership and the DIRREQ resync flow, exercised at the
// datagram level: a raw UDP socket plays a sibling the proxy has never
// heard of, so every learn/bootstrap/repair step is observable on the
// wire instead of inferred from stats.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/summary_cache_node.hpp"
#include "icp/icp_message.hpp"
#include "icp/udp_socket.hpp"
#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

MiniProxyConfig summary_cfg(NodeId id, Endpoint origin) {
    MiniProxyConfig cfg;
    cfg.id = id;
    cfg.origin = origin;
    cfg.mode = ShareMode::summary;
    cfg.update_threshold = 0.0;     // publish every change
    cfg.keepalive_interval = 100ms;
    cfg.liveness_strikes = 50;      // don't declare test peers dead
    cfg.resync_interval = 50ms;
    return cfg;
}

HttpLiteStatus get(MiniProxy& p, const std::string& url) {
    TcpConnection c = TcpConnection::connect(p.http_endpoint());
    c.write_all(format_request({false, url, 0, 100}));
    const auto header = parse_response_header(*c.read_line());
    EXPECT_TRUE(header.has_value());
    c.discard_exact(header->size);
    return header->status;
}

bool eventually(const std::function<bool()>& pred) { return test::eventually(pred, 3s); }

TEST(MeshMembership, RuntimeJoinConvergesWithoutRestart) {
    OriginServer origin({});
    auto a = std::make_unique<MiniProxy>(summary_cfg(1, origin.endpoint()));
    auto b = std::make_unique<MiniProxy>(summary_cfg(2, origin.endpoint()));
    const test::MetricDelta counts;
    a->start();
    b->start();
    EXPECT_EQ(get(*a, "http://joined/doc"), HttpLiteStatus::miss);

    // Only a is told about b, at runtime. a's repair sweep DIRREQs b's
    // bitmap; the DIRREQ carries a's HTTP port, so b learns a as a
    // sibling without any restart or config change, and b's own sweep
    // DIRREQs a's bitmap in turn.
    a->add_sibling(2, b->icp_endpoint(), b->http_endpoint());
    EXPECT_TRUE(eventually([&] {
        return b->sibling_replica_predicts(1, "http://joined/doc") &&
               a->synced_replicas() >= 1 && counts("sc_proxy_siblings_joined_total", 2) >= 1;
    }));
    // And the learned sibling is fully usable: b serves a remote hit
    // through a, which requires b to know a's HTTP endpoint.
    EXPECT_EQ(get(*b, "http://joined/doc"), HttpLiteStatus::remote_hit);
    b->stop();
    a->stop();
    origin.stop();
}

TEST(MeshMembership, DirreqFromUnknownPeerIsLearnedAndServed) {
    OriginServer origin({});
    auto p = std::make_unique<MiniProxy>(summary_cfg(1, origin.endpoint()));
    const test::MetricDelta counts;
    p->start();
    EXPECT_EQ(get(*p, "http://served/doc"), HttpLiteStatus::miss);

    // A raw socket introduces itself with a DIRREQ, as a cold-booting
    // sibling would: "I am node 77, my HTTP port is X, send me your map."
    UdpSocket fake;
    IcpDirReq hello;
    hello.sender_host = 77;
    hello.http_port = 12345;  // nothing listens there; learning is enough
    fake.send_to(p->icp_endpoint(), encode_dirreq(hello));

    // The proxy answers with its full bitmap — which must decode and
    // predict the cached document when applied to a fresh node.
    SummaryCacheNode probe(
        SummaryCacheNodeConfig{.node_id = 99, .expected_docs = 1024, .bloom = {}});
    bool synced = false;
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    while (!synced && std::chrono::steady_clock::now() < deadline) {
        const auto d = fake.receive(100);
        if (!d) continue;
        const auto header = decode_header(d->payload);
        if (header.opcode != IcpOpcode::dirfull) continue;
        synced = probe.apply_sibling_update(decode_dirupdate(d->payload)) ==
                 SummaryApplyResult::applied;
    }
    ASSERT_TRUE(synced);
    EXPECT_TRUE(probe.sibling_may_contain(1, "http://served/doc"));
    EXPECT_GE(counts("sc_proxy_siblings_joined_total", 1), 1u);
    EXPECT_GE(counts("sc_proxy_resync_requests_received_total", 1), 1u);
    EXPECT_GE(counts("sc_proxy_resync_fulls_sent_total", 1), 1u);
    p->stop();
    origin.stop();
}

TEST(MeshMembership, ProxyDirreqsPeersItCannotPredict) {
    // The flip side: once the fake is a known sibling, the proxy's repair
    // sweep keeps DIRREQing it until a full bitmap arrives, then stops
    // asking — lost DIRREQs and lost answers both heal by repetition.
    OriginServer origin({});
    auto p = std::make_unique<MiniProxy>(summary_cfg(1, origin.endpoint()));
    UdpSocket fake;
    p->add_sibling(77, fake.local_endpoint(), Endpoint::loopback(1));
    p->start();

    // The sweep asks for the summary we cannot predict yet.
    bool asked = false;
    auto deadline = std::chrono::steady_clock::now() + 3s;
    while (!asked && std::chrono::steady_clock::now() < deadline) {
        const auto d = fake.receive(100);
        if (d && decode_header(d->payload).opcode == IcpOpcode::dirreq) asked = true;
    }
    ASSERT_TRUE(asked);
    EXPECT_EQ(p->synced_replicas(), 0u);

    // Answer it: the fake's directory becomes a synced replica.
    SummaryCacheNodeConfig fake_cfg;
    fake_cfg.node_id = 77;
    fake_cfg.expected_docs = 1024;
    SummaryCacheNode fake_node(fake_cfg);
    fake_node.on_cache_insert("http://fake/doc");
    for (const auto& chunk : fake_node.encode_full_update_chunks())
        fake.send_to(p->icp_endpoint(), chunk);
    EXPECT_TRUE(eventually([&] {
        return p->synced_replicas() == 1 &&
               p->sibling_replica_predicts(77, "http://fake/doc");
    }));
    p->stop();
    origin.stop();
}

TEST(MeshMembership, DeadSiblingReplicaDroppedAndRebuiltOnRejoin) {
    OriginServer origin({});
    auto cfg = summary_cfg(1, origin.endpoint());
    cfg.keepalive_interval = 50ms;
    cfg.liveness_strikes = 3;
    auto p = std::make_unique<MiniProxy>(cfg);
    const test::MetricDelta counts;
    UdpSocket fake;
    p->add_sibling(77, fake.local_endpoint(), Endpoint::loopback(1));
    p->start();

    SummaryCacheNodeConfig fake_cfg;
    fake_cfg.node_id = 77;
    fake_cfg.expected_docs = 1024;
    SummaryCacheNode fake_node(fake_cfg);
    fake_node.on_cache_insert("http://fake/doc");
    const auto send_full = [&] {
        for (const auto& chunk : fake_node.encode_full_update_chunks())
            fake.send_to(p->icp_endpoint(), chunk);
    };
    send_full();
    ASSERT_TRUE(eventually([&] { return p->synced_replicas() == 1; }));

    // The fake goes silent: after liveness_strikes quiet intervals its
    // replica is forgotten — a dead peer's summary must not keep
    // attracting queries.
    ASSERT_TRUE(eventually([&] {
        while (fake.receive(0)) {  // drain probes; never answer
        }
        return p->synced_replicas() == 0 &&
               counts("sc_proxy_sibling_death_events_total", 1) >= 1;
    }));
    EXPECT_FALSE(p->sibling_replica_predicts(77, "http://fake/doc"));

    // Rejoin: the first datagram heard revives it, and the fake's full
    // bitmap (what the sweep's DIRREQ asks for) rebuilds the replica.
    send_full();
    EXPECT_TRUE(eventually([&] {
        return p->synced_replicas() == 1 &&
               p->sibling_replica_predicts(77, "http://fake/doc") &&
               counts("sc_proxy_sibling_recovery_events_total", 1) >= 1;
    }));
    p->stop();
    origin.stop();
}

}  // namespace
}  // namespace sc
