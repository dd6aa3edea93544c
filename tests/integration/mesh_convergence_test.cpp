// The acceptance scenario for loss-tolerant summary distribution: a
// 4-proxy mesh under 25% datagram loss (plus duplication and reordering),
// with one proxy killed and restarted mid-run and one late joiner that
// knows a single peer. Every surviving replica must converge — each proxy
// predicting every other proxy's documents — through gap detection,
// DIRREQ resync, and dynamic membership alone.
//
// Scale knob: SC_CONVERGENCE_URLS overrides the per-proxy document count
// (CI runs the TSan build at reduced scale).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

std::size_t urls_per_proxy() {
    if (const char* env = std::getenv("SC_CONVERGENCE_URLS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    return 25;
}

MiniProxyConfig mesh_cfg(NodeId id, Endpoint origin) {
    MiniProxyConfig cfg;
    cfg.id = id;
    cfg.origin = origin;
    cfg.mode = ShareMode::summary;
    cfg.update_threshold = 0.0;
    cfg.keepalive_interval = 100ms;
    cfg.liveness_strikes = 4;
    cfg.resync_interval = 100ms;
    // The hostile network: a quarter of all datagrams vanish, some arrive
    // twice, some out of order. Seeded per node so runs replay exactly.
    cfg.udp_faults.loss = 0.25;
    cfg.udp_faults.duplicate = 0.10;
    cfg.udp_faults.reorder = 0.10;
    cfg.udp_faults.seed = 1000 + id;
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

std::string doc_url(NodeId owner, std::size_t i) {
    return "http://node" + std::to_string(owner) + "/doc" + std::to_string(i);
}

TEST(MeshConvergence, LossyMeshWithRestartAndLateJoinerConverges) {
    const std::size_t kUrls = urls_per_proxy();
    OriginServer origin({});

    // Proxies 1-3 form the initial mesh (full sibling lists); proxy 4
    // joins late knowing only proxy 1.
    std::vector<std::unique_ptr<MiniProxy>> mesh;
    for (NodeId id = 1; id <= 3; ++id)
        mesh.push_back(std::make_unique<MiniProxy>(mesh_cfg(id, origin.endpoint())));
    const test::MetricDelta counts;  // for nodes 1 and 3, and 4 (not built yet)
    for (auto& p : mesh)
        for (auto& q : mesh)
            if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
    for (auto& p : mesh) p->start();

    for (std::size_t i = 0; i < kUrls; ++i)
        for (auto& p : mesh) ASSERT_EQ(get(*p, doc_url(p->id(), i)), HttpLiteStatus::miss);

    // Kill proxy 2 mid-run and bring it back on the same ports with an
    // empty cache: a fresh boot id, a reset sequence space, and stale
    // replicas of it everywhere.
    const std::uint16_t icp2 = mesh[1]->icp_endpoint().port;
    const std::uint16_t http2 = mesh[1]->http_endpoint().port;
    mesh[1]->stop();
    mesh[1].reset();
    auto cfg2 = mesh_cfg(2, origin.endpoint());
    cfg2.icp_port = icp2;
    cfg2.http_port = http2;
    mesh[1] = std::make_unique<MiniProxy>(cfg2);
    const test::MetricDelta restarted_counts;  // node 2's second incarnation
    mesh[1]->add_sibling(1, mesh[0]->icp_endpoint(), mesh[0]->http_endpoint());
    mesh[1]->add_sibling(3, mesh[2]->icp_endpoint(), mesh[2]->http_endpoint());
    mesh[1]->start();
    // It re-caches its documents plus one new one — churn the mesh must
    // relearn through the restart.
    for (std::size_t i = 0; i < kUrls; ++i)
        (void)get(*mesh[1], doc_url(2, i));
    ASSERT_EQ(get(*mesh[1], doc_url(2, kUrls)), HttpLiteStatus::miss);

    // The late joiner: knows only proxy 1; everyone else must learn it
    // (and it them) through DIRREQ/SECHO propagation.
    mesh.push_back(std::make_unique<MiniProxy>(mesh_cfg(4, origin.endpoint())));
    mesh[3]->add_sibling(1, mesh[0]->icp_endpoint(), mesh[0]->http_endpoint());
    mesh[3]->start();
    for (std::size_t i = 0; i < kUrls; ++i)
        ASSERT_EQ(get(*mesh[3], doc_url(4, i)), HttpLiteStatus::miss);

    // Node 4 introduced itself only to node 1; DIRREQ introductions
    // propagate the membership from there, so EVERY ordered pair must
    // converge: each proxy's replica predicts every document every other
    // proxy cached — under sustained 25% loss, through the restart.
    const auto all_pairs_converged = [&] {
        for (const auto& p : mesh) {
            for (const auto& q : mesh) {
                if (p == q) continue;
                const std::size_t docs = q->id() == 2 ? kUrls + 1 : kUrls;
                for (std::size_t i = 0; i < docs; ++i)
                    if (!p->sibling_replica_predicts(q->id(), doc_url(q->id(), i)))
                        return false;
            }
        }
        return true;
    };
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (!all_pairs_converged() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(100ms);
    EXPECT_TRUE(all_pairs_converged());

    // Converged replicas are usable under loss: the document body rides
    // TCP, but the ICP probe preceding the fetch rides the lossy UDP
    // mesh, so any single probe can time out and fall back to the
    // origin. Each (requester, document) pair is one independent shot —
    // a timed-out miss caches the document locally, burning that pair —
    // and one sibling-to-sibling hit proves the path.
    bool remote_hit = false;
    for (auto* requester : {mesh[0].get(), mesh[2].get(), mesh[3].get()}) {
        for (std::size_t i = 0; i <= kUrls && !remote_hit; ++i)
            remote_hit = get(*requester, doc_url(2, i)) == HttpLiteStatus::remote_hit;
        if (remote_hit) break;
    }
    EXPECT_TRUE(remote_hit);

    // The fault injector really was in play.
    const char* const resync_requests = "sc_proxy_resync_requests_sent_total";
    const std::uint64_t resyncs = counts(resync_requests, 1) + counts(resync_requests, 3) +
                                  counts(resync_requests, 4) +
                                  restarted_counts(resync_requests, 2);
    EXPECT_GE(resyncs, 1u);

    for (auto& p : mesh) p->stop();
    origin.stop();
}

}  // namespace
}  // namespace sc
