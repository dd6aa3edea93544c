// Simulator/proxy parity: the trace simulators and the live MiniProxy
// drive the SAME core::ProtocolEngine, so for a deterministic workload the
// two must produce identical protocol tallies — hits, false hits (wasted
// queries), query messages, and update messages. This is the golden test
// that pins the refactor's central claim: the semantics measured by
// Figures 5-8 are, by construction, the semantics on the wire.
//
// Determinism requires taming the two sources of divergence a live
// federation adds:
//   * staleness — modify_probability = 0 removes version churn, so a
//     sibling that answers HIT always serves a fresh copy;
//   * update propagation — requests are replayed one at a time and the
//     replay waits for every sent update datagram to be applied before
//     the next request probes the replicas (the simulator's publishes are
//     instantaneous by construction).
// The proxies still run with --workers 4: successive requests land on
// different pipeline workers, so the engine's flush election and the
// directory hooks writing the node are exercised off the main thread.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "sim/share_sim.hpp"
#include "support/metric_delta.hpp"
#include "trace/generator.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

/// Wait until every update datagram any proxy has sent was applied by its
/// receiver (each datagram is exactly one applied update). Only the
/// federation runs, so process-wide growth is the federation's total.
[[nodiscard]] bool settle_updates(const test::MetricDelta& counts) {
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (counts("sc_node_updates_applied_total") < counts("sc_proxy_updates_sent_total")) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(200us);
    }
    return true;
}

std::vector<Request> parity_trace() {
    TraceProfile profile = standard_profile(TraceKind::upisa, 0.05);
    profile.requests = 600;
    profile.clients = 12;
    profile.modify_probability = 0.0;  // no stales: HIT implies fresh
    profile.size_lo = 1'000;
    profile.size_hi = 20'000;  // keep loopback bodies small
    profile.seed = 1998;
    return TraceGenerator(profile).generate_all();
}

ShareSimResult parity_sim(const std::vector<Request>& trace, std::uint32_t num_proxies,
                          std::uint64_t cache_bytes) {
    ShareSimConfig sim_cfg;
    sim_cfg.num_proxies = num_proxies;
    sim_cfg.cache_bytes_per_proxy = cache_bytes;
    sim_cfg.scheme = SharingScheme::simple;
    sim_cfg.protocol = QueryProtocol::summary;
    sim_cfg.update_threshold = 0.0;  // publish every insert (replay settles each)
    return run_share_sim(sim_cfg, trace);
}

/// Replay `trace` through a live federation, settling updates after every
/// request, and check every protocol tally against the simulator's.
void expect_live_tallies_match(const std::vector<Request>& trace, const ShareSimResult& sim,
                               std::uint32_t num_proxies, std::uint64_t cache_bytes,
                               std::size_t cache_shards) {
    OriginServer origin({});
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    proxies.reserve(num_proxies);
    for (std::uint32_t i = 0; i < num_proxies; ++i) {
        MiniProxyConfig cfg;
        cfg.id = i;  // ids == simulator indexes: identical probe order
        cfg.origin = origin.endpoint();
        cfg.cache_bytes = cache_bytes;
        cfg.mode = ShareMode::summary;
        cfg.update_threshold = 0.0;
        cfg.workers = 4;
        cfg.cache_shards = cache_shards;
        proxies.push_back(std::make_unique<MiniProxy>(cfg));
    }
    const test::MetricDelta counts;
    const auto total = [&](std::string_view name) {
        std::uint64_t sum = 0;
        for (const auto& p : proxies) sum += counts(name, p->id());
        return sum;
    };
    for (std::uint32_t i = 0; i < num_proxies; ++i)
        for (std::uint32_t j = 0; j < num_proxies; ++j)
            if (j != i)
                proxies[i]->add_sibling(j, proxies[j]->icp_endpoint(),
                                        proxies[j]->http_endpoint());
    for (auto& p : proxies) p->start();

    std::vector<TcpConnection> conns;
    conns.reserve(num_proxies);
    for (auto& p : proxies) conns.push_back(TcpConnection::connect(p->http_endpoint()));

    for (const Request& r : trace) {
        const std::uint32_t home = r.client_id % num_proxies;  // the simulator's mapping
        conns[home].write_all(format_request({false, r.url, r.version, r.size}));
        const auto line = conns[home].read_line();
        ASSERT_TRUE(line.has_value());
        const auto header = parse_response_header(*line);
        ASSERT_TRUE(header.has_value());
        conns[home].discard_exact(header->size);
        ASSERT_TRUE(settle_updates(counts)) << "update datagram lost or unapplied";
    }

    // --- the tallies must agree exactly -----------------------------------
    EXPECT_EQ(total("sc_proxy_requests_total"), sim.requests);
    EXPECT_EQ(total("sc_cache_hits_total"), sim.local_hits);
    EXPECT_EQ(total("sc_proxy_remote_hits_total"), sim.remote_hits);
    EXPECT_EQ(total("sc_proxy_origin_fetches_total"), sim.server_fetches);
    EXPECT_EQ(total("sc_proxy_icp_queries_sent_total"), sim.query_messages);
    // The false-hit tally: every query a summary provoked that the sibling
    // answered MISS (the per-request sim.false_hits is derived from these).
    EXPECT_EQ(total("sc_proxy_false_hit_queries_total"), sim.wasted_queries);
    EXPECT_EQ(total("sc_proxy_updates_sent_total"), sim.update_messages);
    EXPECT_EQ(origin.requests_served(), sim.server_fetches);

    conns.clear();
    for (auto& p : proxies) p->stop();
    origin.stop();
}

TEST(SimProxyParity, SummaryProtocolTalliesMatchSimulator) {
    constexpr std::uint32_t kProxies = 4;
    constexpr std::uint64_t kCacheBytes = 1ull * 1024 * 1024;
    const std::vector<Request> trace = parity_trace();
    const ShareSimResult sim = parity_sim(trace, kProxies, kCacheBytes);
    ASSERT_EQ(sim.remote_stale_hits, 0u);  // modify_probability = 0 held
    ASSERT_GT(sim.remote_hits, 0u);        // the workload actually shares
    ASSERT_GT(sim.update_messages, 0u);
    // Eviction order is part of this workload (1 MB caches churn), so the
    // live caches must stay shards = 1: per-shard LRU would evict in a
    // different order than the simulator's single list.
    expect_live_tallies_match(trace, sim, kProxies, kCacheBytes, /*cache_shards=*/1);
}

TEST(SimProxyParity, ShardedCacheKeepsTalliesWhenEvictionFree) {
    // The sharded request path must not change WHAT the protocol decides,
    // only how it locks. With caches large enough that nothing is ever
    // evicted, shard count cannot affect contents, so every tally must
    // still match the simulator exactly — any drift means sharding leaked
    // into protocol semantics (lost hooks, dropped inserts, probe skew).
    constexpr std::uint32_t kProxies = 4;
    constexpr std::uint64_t kCacheBytes = 64ull * 1024 * 1024;  // fits the whole trace
    const std::vector<Request> trace = parity_trace();
    const ShareSimResult sim = parity_sim(trace, kProxies, kCacheBytes);
    ASSERT_GT(sim.remote_hits, 0u);
    ASSERT_GT(sim.update_messages, 0u);
    expect_live_tallies_match(trace, sim, kProxies, kCacheBytes, /*cache_shards=*/4);
}

}  // namespace
}  // namespace sc
