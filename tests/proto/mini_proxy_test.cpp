#include "proto/mini_proxy.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "proto/origin_server.hpp"
#include "support/metric_delta.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

struct Federation {
    std::unique_ptr<OriginServer> origin;
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    test::MetricDelta counts;  ///< baseline: the proxies just constructed

    explicit Federation(std::size_t n, ShareMode mode,
                        std::chrono::milliseconds origin_delay = 0ms) {
        origin = std::make_unique<OriginServer>(
            OriginServer::Config{.port = 0, .reply_delay = origin_delay});
        for (std::size_t i = 0; i < n; ++i) {
            MiniProxyConfig cfg;
            cfg.id = static_cast<NodeId>(i + 1);
            cfg.origin = origin->endpoint();
            cfg.mode = mode;
            cfg.cache_bytes = 4ull * 1024 * 1024;
            cfg.update_threshold = 0.0;  // publish every change (tests want immediacy)
            proxies.push_back(std::make_unique<MiniProxy>(cfg));
        }
        counts = test::MetricDelta();
        for (auto& p : proxies)
            for (auto& q : proxies)
                if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
        for (auto& p : proxies) p->start();
    }

    ~Federation() {
        for (auto& p : proxies) p->stop();
        origin->stop();
    }

    HttpLiteResponseHeader get(std::size_t proxy, const std::string& url,
                               std::uint64_t version = 0, std::uint64_t size = 100) {
        TcpConnection c = TcpConnection::connect(proxies[proxy]->http_endpoint());
        c.write_all(format_request({false, url, version, size}));
        const auto line = c.read_line();
        if (!line) throw std::runtime_error("proxy closed connection");
        const auto header = parse_response_header(*line);
        if (!header) throw std::runtime_error("bad header");
        c.discard_exact(header->size);
        return *header;
    }
};

TEST(MiniProxy, MissThenLocalHit) {
    Federation fed(1, ShareMode::none);
    EXPECT_EQ(fed.get(0, "http://a/1").status, HttpLiteStatus::miss);
    EXPECT_EQ(fed.get(0, "http://a/1").status, HttpLiteStatus::local_hit);
    EXPECT_EQ(fed.counts("sc_proxy_requests_total", 1), 2u);
    EXPECT_EQ(fed.counts("sc_cache_hits_total", 1), 1u);
    EXPECT_EQ(fed.counts("sc_proxy_origin_fetches_total", 1), 1u);
    EXPECT_EQ(fed.origin->requests_served(), 1u);
}

TEST(MiniProxy, NoSharingModeNeverQueries) {
    Federation fed(2, ShareMode::none);
    (void)fed.get(0, "http://a/1");
    (void)fed.get(1, "http://a/1");  // both go to origin
    EXPECT_EQ(fed.origin->requests_served(), 2u);
    EXPECT_EQ(fed.counts("sc_proxy_icp_queries_sent_total", 1), 0u);
    EXPECT_EQ(fed.counts("sc_proxy_remote_hits_total", 2), 0u);
}

TEST(MiniProxy, IcpRemoteHit) {
    Federation fed(2, ShareMode::icp);
    EXPECT_EQ(fed.get(0, "http://shared/doc").status, HttpLiteStatus::miss);
    EXPECT_EQ(fed.get(1, "http://shared/doc").status, HttpLiteStatus::remote_hit);
    EXPECT_EQ(fed.origin->requests_served(), 1u);  // served sibling-to-sibling
    EXPECT_EQ(fed.counts("sc_proxy_remote_hits_total", 2), 1u);
    EXPECT_GE(fed.counts("sc_proxy_icp_queries_sent_total", 2), 1u);
    EXPECT_GE(fed.counts("sc_proxy_icp_queries_received_total", 1), 1u);
    EXPECT_GE(fed.counts("sc_proxy_icp_replies_sent_total", 1), 1u);
    // Simple sharing: proxy 1 cached the copy, a repeat is a local hit.
    EXPECT_EQ(fed.get(1, "http://shared/doc").status, HttpLiteStatus::local_hit);
}

TEST(MiniProxy, IcpQueriesAllSiblingsOnEveryMiss) {
    Federation fed(4, ShareMode::icp);
    (void)fed.get(0, "http://only-mine/1");
    EXPECT_EQ(fed.counts("sc_proxy_icp_queries_sent_total", 1), 3u);
    EXPECT_EQ(fed.counts("sc_proxy_icp_replies_received_total", 1), 3u);  // three MISS replies
}

TEST(MiniProxy, SummaryModeSkipsQueriesWhenSummariesSilent) {
    Federation fed(3, ShareMode::summary);
    (void)fed.get(0, "http://nowhere/else");
    // No sibling summary advertises the URL: zero queries on the wire.
    EXPECT_EQ(fed.counts("sc_proxy_icp_queries_sent_total", 1), 0u);
}

TEST(MiniProxy, SummaryModeRemoteHitAfterUpdatePropagates) {
    Federation fed(2, ShareMode::summary);
    EXPECT_EQ(fed.get(0, "http://popular/doc").status, HttpLiteStatus::miss);
    // Let the directory update reach proxy 2.
    ASSERT_TRUE(test::eventually(
        [&] { return fed.proxies[1]->sibling_replica_predicts(1, "http://popular/doc"); }));
    EXPECT_GE(fed.counts("sc_node_updates_applied_total", 2), 1u);
    EXPECT_EQ(fed.get(1, "http://popular/doc").status, HttpLiteStatus::remote_hit);
    EXPECT_EQ(fed.counts("sc_proxy_remote_hits_total", 2), 1u);
    EXPECT_EQ(fed.counts("sc_proxy_icp_queries_sent_total", 2), 1u);  // only the promising sibling
    EXPECT_EQ(fed.origin->requests_served(), 1u);
}

TEST(MiniProxy, SummaryFalseMissBeforeUpdateArrives) {
    // With a 100% update threshold the summary never propagates, so the
    // second proxy goes straight to the origin: a false miss, never a
    // wrong answer.
    auto origin = std::make_unique<OriginServer>(OriginServer::Config{});
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    for (int i = 0; i < 2; ++i) {
        MiniProxyConfig cfg;
        cfg.id = static_cast<NodeId>(i + 1);
        cfg.origin = origin->endpoint();
        cfg.mode = ShareMode::summary;
        cfg.update_threshold = 1.0;
        proxies.push_back(std::make_unique<MiniProxy>(cfg));
    }
    for (auto& p : proxies)
        for (auto& q : proxies)
            if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
    for (auto& p : proxies) p->start();

    const auto get = [&](int proxy, const std::string& url) {
        TcpConnection c = TcpConnection::connect(proxies[static_cast<std::size_t>(proxy)]->http_endpoint());
        c.write_all(format_request({false, url, 0, 50}));
        const auto header = parse_response_header(*c.read_line());
        c.discard_exact(header->size);
        return header->status;
    };
    // First insert always crosses the threshold (1 new doc >= 100% of a
    // 1-doc directory); burn it, then the interesting document stays
    // unpublished (1 new < 100% of 2 docs).
    EXPECT_EQ(get(0, "http://warmup/doc"), HttpLiteStatus::miss);
    EXPECT_EQ(get(0, "http://doc/x"), HttpLiteStatus::miss);
    EXPECT_EQ(get(1, "http://doc/x"), HttpLiteStatus::miss);  // false miss
    EXPECT_EQ(origin->requests_served(), 3u);
    for (auto& p : proxies) p->stop();
    origin->stop();
}

TEST(MiniProxy, StaleSiblingCopyFallsBackToOrigin) {
    Federation fed(2, ShareMode::icp);
    (void)fed.get(0, "http://doc/v", /*version=*/1);
    // Proxy 1 wants version 2; proxy 0's ICP says HIT (URL match) but the
    // SGET returns NOT_CACHED on the version check: remote stale hit.
    EXPECT_EQ(fed.get(1, "http://doc/v", /*version=*/2).status, HttpLiteStatus::miss);
    EXPECT_EQ(fed.origin->requests_served(), 2u);
    EXPECT_EQ(fed.counts("sc_proxy_remote_hits_total", 2), 0u);
}

TEST(MiniProxy, BootPullBootstrapsLateSibling) {
    // Proxy 0 caches a document before proxy 1 exists. Proxy 1 boots and
    // its repair sweep DIRREQs proxy 0, whose chunked DIRFULL answer seeds
    // the replica; proxy 0 pulls the newcomer's summary the same way.
    auto origin = std::make_unique<OriginServer>(OriginServer::Config{});
    MiniProxyConfig cfg0;
    cfg0.id = 1;
    cfg0.origin = origin->endpoint();
    cfg0.mode = ShareMode::summary;
    auto p0 = std::make_unique<MiniProxy>(cfg0);
    p0->start();

    const auto get = [&](MiniProxy& p, const std::string& url) {
        TcpConnection c = TcpConnection::connect(p.http_endpoint());
        c.write_all(format_request({false, url, 0, 64}));
        const auto header = parse_response_header(*c.read_line());
        c.discard_exact(header->size);
        return header->status;
    };
    EXPECT_EQ(get(*p0, "http://warm/doc"), HttpLiteStatus::miss);

    MiniProxyConfig cfg1 = cfg0;
    cfg1.id = 2;
    auto p1 = std::make_unique<MiniProxy>(cfg1);
    const test::MetricDelta counts;
    p0->add_sibling(2, p1->icp_endpoint(), p1->http_endpoint());  // a runtime join
    p1->add_sibling(1, p0->icp_endpoint(), p0->http_endpoint());
    p1->start();

    EXPECT_TRUE(test::eventually([&] {
        return p1->sibling_replica_predicts(1, "http://warm/doc") && p0->synced_replicas() == 1;
    }));
    EXPECT_GE(counts("sc_proxy_resync_fulls_sent_total", 1), 1u);
    EXPECT_GE(counts("sc_node_resyncs_total", 2), 1u);
    EXPECT_EQ(get(*p1, "http://warm/doc"), HttpLiteStatus::remote_hit);
    p1->stop();
    p0->stop();
    origin->stop();
}

TEST(MiniProxy, ManyDocumentsAcrossFederation) {
    Federation fed(3, ShareMode::summary);
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(fed.get(static_cast<std::size_t>(i % 3), "http://d/" + std::to_string(i)).status,
                  HttpLiteStatus::miss);
    // Every document is now locally cached where it was requested; wait
    // until the proxy that will ask for it next predicts it from its owner.
    EXPECT_TRUE(test::eventually([&] {
        for (int i = 0; i < 30; ++i)
            if (!fed.proxies[static_cast<std::size_t>((i + 1) % 3)]->sibling_replica_predicts(
                    static_cast<NodeId>(i % 3 + 1), "http://d/" + std::to_string(i)))
                return false;
        return true;
    }));
    std::uint64_t remote = 0;
    for (int i = 0; i < 30; ++i) {
        const auto st = fed.get(static_cast<std::size_t>((i + 1) % 3), "http://d/" + std::to_string(i)).status;
        if (st == HttpLiteStatus::remote_hit) ++remote;
    }
    EXPECT_GE(remote, 25u);  // a few may race with late updates
    EXPECT_EQ(fed.origin->requests_served(), 30u + (30u - remote));
}

TEST(MiniProxy, StopIsIdempotentAndDestructorSafe) {
    Federation fed(1, ShareMode::none);
    fed.proxies[0]->stop();
    fed.proxies[0]->stop();
}

std::size_t open_fds() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(MiniProxy, FailedConstructionClosesEveryFd) {
    // The access log opens after the sockets and the wake pipe exist; when
    // it cannot, the throwing constructor must release all of them.
    MiniProxyConfig cfg;
    cfg.id = 1;
    cfg.access_log_path = "/nonexistent-sc-dir/access.log";
    EXPECT_THROW(MiniProxy{cfg}, std::runtime_error);  // warm any lazy process fds
    const std::size_t before = open_fds();
    for (int i = 0; i < 10; ++i) EXPECT_THROW(MiniProxy{cfg}, std::runtime_error);
    EXPECT_EQ(open_fds(), before);
}

}  // namespace
}  // namespace sc
