// Cross-layer integration: the same workload driven through (a) the
// trace-driven simulator and (b) the real-socket prototype must agree on
// the protocol-level outcomes (hit classes, query economy), which is the
// evidence that the simulator's accounting reflects the implemented wire
// protocol rather than an idealization of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "proto/replay_client.hpp"
#include "sim/share_sim.hpp"
#include "support/metric_delta.hpp"
#include "trace/generator.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

std::vector<Request> tiny_workload(std::uint32_t clients, std::size_t requests) {
    TraceProfile p = standard_profile(TraceKind::upisa, 0.01);
    p.clients = clients;
    p.requests = requests;
    p.shared_docs = 400;
    p.private_fraction = 0.1;
    p.size_hi = 20'000;  // keep socket transfers snappy
    p.size_lo = 64;
    auto trace = TraceGenerator(p).generate_all();
    return trace;
}

struct Testbed {
    std::unique_ptr<OriginServer> origin;
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    test::MetricDelta counts;  ///< baseline: the proxies just constructed

    Testbed(std::size_t n, ShareMode mode, double threshold) {
        origin = std::make_unique<OriginServer>(OriginServer::Config{});
        for (std::size_t i = 0; i < n; ++i) {
            MiniProxyConfig cfg;
            cfg.id = static_cast<NodeId>(i + 1);
            cfg.origin = origin->endpoint();
            cfg.mode = mode;
            cfg.cache_bytes = 2ull * 1024 * 1024;
            cfg.update_threshold = threshold;
            proxies.push_back(std::make_unique<MiniProxy>(cfg));
        }
        counts = test::MetricDelta();
        for (auto& p : proxies)
            for (auto& q : proxies)
                if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
        for (auto& p : proxies) p->start();
    }

    /// Growth of `name` summed over the testbed's proxies.
    [[nodiscard]] std::uint64_t total(std::string_view name) const {
        std::uint64_t sum = 0;
        for (const auto& p : proxies) sum += counts(name, p->id());
        return sum;
    }

    ~Testbed() {
        for (auto& p : proxies) p->stop();
        origin->stop();
    }

    [[nodiscard]] std::vector<Endpoint> http_endpoints() const {
        std::vector<Endpoint> out;
        for (const auto& p : proxies) out.push_back(p->http_endpoint());
        return out;
    }
};

TEST(EndToEnd, ReplayTotalsAreConsistent) {
    const auto trace = tiny_workload(16, 600);
    Testbed bed(4, ShareMode::summary, 0.0);
    const auto stats = replay_trace(trace, bed.http_endpoints());
    EXPECT_EQ(stats.requests, trace.size());
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.local_hits + stats.remote_hits + stats.misses, stats.requests);
    EXPECT_GT(stats.total_hit_ratio(), 0.05);
    // Origin served exactly the misses (every miss is one origin fetch).
    EXPECT_EQ(bed.origin->requests_served(), stats.misses);
}

TEST(EndToEnd, PrototypeMatchesSimulatorHitRatios) {
    const auto trace = tiny_workload(16, 600);

    // Simulator.
    ShareSimConfig sim_cfg;
    sim_cfg.num_proxies = 4;
    sim_cfg.cache_bytes_per_proxy = 2ull * 1024 * 1024;
    sim_cfg.scheme = SharingScheme::simple;
    sim_cfg.protocol = QueryProtocol::summary;
    sim_cfg.summary_kind = SummaryKind::bloom;
    sim_cfg.update_threshold = 0.0;
    const auto sim = run_share_sim(sim_cfg, trace);

    // Prototype.
    Testbed bed(4, ShareMode::summary, 0.0);
    const auto proto = replay_trace(trace, bed.http_endpoints());

    // Local hits are deterministic given the same LRU policy; remote hits
    // can differ slightly due to UDP update propagation timing.
    const double sim_local = sim.local_hit_ratio();
    const double proto_local =
        static_cast<double>(proto.local_hits) / static_cast<double>(proto.requests);
    EXPECT_NEAR(proto_local, sim_local, 0.02);
    const double proto_total = proto.total_hit_ratio();
    EXPECT_NEAR(proto_total, sim.total_hit_ratio(), 0.05);
}

TEST(EndToEnd, IcpAndSummaryAgreeOnHitsButNotOnTraffic) {
    const auto trace = tiny_workload(16, 500);

    std::uint64_t icp_queries = 0, sum_queries = 0;
    double icp_hits = 0, sum_hits = 0;
    {
        Testbed bed(4, ShareMode::icp, 0.0);
        const auto stats = replay_trace(trace, bed.http_endpoints());
        icp_hits = stats.total_hit_ratio();
        icp_queries = bed.total("sc_proxy_icp_queries_sent_total");
    }
    {
        Testbed bed(4, ShareMode::summary, 0.0);
        const auto stats = replay_trace(trace, bed.http_endpoints());
        sum_hits = stats.total_hit_ratio();
        sum_queries = bed.total("sc_proxy_icp_queries_sent_total");
    }
    EXPECT_NEAR(sum_hits, icp_hits, 0.05);
    EXPECT_LT(sum_queries, icp_queries / 3);  // the headline economy, live on sockets
}

TEST(EndToEnd, VersionChurnNeverServesWrongDocument) {
    // Correctness under modification: a version bump must never yield a hit
    // on the old version anywhere in the federation.
    TraceProfile p = standard_profile(TraceKind::upisa, 0.01);
    p.requests = 300;
    p.clients = 8;
    p.shared_docs = 30;  // heavy re-use
    p.private_fraction = 0.0;
    p.modify_probability = 0.2;  // aggressive churn
    p.size_lo = 64;
    p.size_hi = 4096;
    const auto trace = TraceGenerator(p).generate_all();

    Testbed bed(2, ShareMode::summary, 0.0);
    const auto stats = replay_trace(trace, bed.http_endpoints());
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.requests, trace.size());
    // The protocol guarantees errors of the two tolerable kinds only; the
    // replay client checked every body size implicitly via discard_exact.
    SUCCEED();
}

TEST(EndToEnd, FalseHitsAreWastedQueriesNotWrongAnswers) {
    // Force Bloom collisions with a minuscule filter: false hits must only
    // cost extra queries; every reply remains correct.
    auto origin = std::make_unique<OriginServer>(OriginServer::Config{});
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    for (int i = 0; i < 2; ++i) {
        MiniProxyConfig cfg;
        cfg.id = static_cast<NodeId>(i + 1);
        cfg.origin = origin->endpoint();
        cfg.mode = ShareMode::summary;
        cfg.update_threshold = 0.0;
        cfg.cache_bytes = 64 * 1024;
        cfg.bloom.load_factor = 1;  // absurdly dense: lots of false positives
        proxies.push_back(std::make_unique<MiniProxy>(cfg));
    }
    const test::MetricDelta counts;
    for (auto& p : proxies)
        for (auto& q : proxies)
            if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
    for (auto& p : proxies) p->start();

    const auto trace = tiny_workload(8, 250);
    std::vector<Endpoint> eps;
    for (const auto& p : proxies) eps.push_back(p->http_endpoint());
    const auto stats = replay_trace(trace, eps);
    EXPECT_EQ(stats.errors, 0u);
    std::uint64_t false_hits = 0;
    for (const auto& p : proxies) false_hits += counts("sc_proxy_false_hit_queries_total", p->id());
    EXPECT_GT(false_hits, 0u);  // the dense filter must have lied sometimes
    for (auto& p : proxies) p->stop();
    origin->stop();
}

}  // namespace
}  // namespace sc
