// Live wide-area federation demo — the prototype of Section VI on real
// sockets (loopback): one origin-server emulator, three "squidlet" proxies
// speaking HTTP-lite over TCP and SC-ICP over UDP, and a trace-replay
// client. Watch the summaries propagate: the second time a document is
// requested through a *different* proxy, it is served sibling-to-sibling.
//
//     ./examples/wide_area_federation [requests]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "proto/replay_client.hpp"
#include "trace/generator.hpp"

int main(int argc, char** argv) {
    using namespace sc;
    const std::size_t num_requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 800;

    OriginServer origin({.port = 0, .reply_delay = std::chrono::milliseconds(2)});
    std::printf("origin server listening on %s\n", origin.endpoint().to_string().c_str());

    constexpr std::size_t kProxies = 3;
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    for (std::size_t i = 0; i < kProxies; ++i) {
        MiniProxyConfig cfg;
        cfg.id = static_cast<NodeId>(i + 1);
        cfg.origin = origin.endpoint();
        cfg.mode = ShareMode::summary;
        cfg.cache_bytes = 8ull * 1024 * 1024;
        cfg.update_threshold = 0.005;
        proxies.push_back(std::make_unique<MiniProxy>(cfg));
    }
    for (auto& p : proxies)
        for (auto& q : proxies)
            if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
    for (auto& p : proxies) {
        p->start();
        std::printf("proxy %u: HTTP %s  ICP/UDP %s\n", p->id(),
                    p->http_endpoint().to_string().c_str(),
                    p->icp_endpoint().to_string().c_str());
    }

    TraceProfile profile = standard_profile(TraceKind::nlanr, 0.01);
    profile.requests = num_requests;
    profile.clients = 30;
    profile.shared_docs = 300;
    profile.size_lo = 200;
    profile.size_hi = 60'000;
    const auto trace = TraceGenerator(profile).generate_all();

    std::printf("\nreplaying %zu requests across the federation...\n", trace.size());
    const auto stats = replay_trace(trace, {proxies[0]->http_endpoint(),
                                            proxies[1]->http_endpoint(),
                                            proxies[2]->http_endpoint()});

    std::printf("\nclient view: %llu requests, %.1f%% local hits, %.1f%% remote hits, "
                "%.1f%% misses, mean latency %.2f ms\n",
                static_cast<unsigned long long>(stats.requests),
                100.0 * stats.local_hits / stats.requests,
                100.0 * stats.remote_hits / stats.requests,
                100.0 * stats.misses / stats.requests, 1000.0 * stats.latency_s.mean());

    std::printf("\nper-proxy protocol economy:\n");
    std::printf("%6s %9s %10s %10s %12s %12s %12s %10s\n", "proxy", "requests", "localHit",
                "remoteHit", "queriesSent", "updatesSent", "updatesRecv", "falseHit");
    const auto snap = obs::metrics().snapshot();  // every count lives in the registry
    for (auto& p : proxies) {
        const auto count = [&](const char* name) -> unsigned long long {
            const auto* s = snap.find(name, {{"node", std::to_string(p->id())}});
            return s != nullptr ? s->counter : 0;
        };
        std::printf("%6u %9llu %10llu %10llu %12llu %12llu %12llu %10llu\n", p->id(),
                    count("sc_proxy_requests_total"), count("sc_cache_hits_total"),
                    count("sc_proxy_remote_hits_total"), count("sc_proxy_icp_queries_sent_total"),
                    count("sc_proxy_updates_sent_total"), count("sc_node_updates_applied_total"),
                    count("sc_proxy_false_hit_queries_total"));
    }
    std::printf("\norigin served %llu fetches (= federation misses)\n",
                static_cast<unsigned long long>(origin.requests_served()));

    for (auto& p : proxies) p->stop();
    origin.stop();
    return 0;
}
