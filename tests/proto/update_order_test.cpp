// Summary updates leave a proxy in sequence order. Every flush takes a
// delta sequence number and every keep-alive tick advertises the next one
// in a heartbeat; if a later delta or heartbeat reaches the wire before an
// earlier delta, the receiver reads a gap, quarantines the replica and
// pulls a full bitmap, although no datagram was lost.
//
// The rig makes that race likely: 8 workers per proxy flush after every
// insert (update_threshold = 0), heartbeats go out every 2 ms, and 16
// keep-alive clients keep every worker inserting. Loopback still drops a
// datagram when a receive buffer overflows, and that is a real gap the
// receiver must report. So the test counts the kernel's drops at the
// proxies' ICP sockets and requires every divergence to be explained by
// one; any other divergence is an ordering bug. The rig keeps drops rare:
//   - the origin answers after 2 ms, pacing the clients at ~3.5k misses/s
//     per proxy (10 ms under TSan, whose event loop drains its socket
//     about ten times slower);
//   - documents are 8 KB, the size the summary is dimensioned for, so the
//     cache holds as many documents as the summary expects: no false hits
//     add ICP rounds, and each delta copies a small replica.
// Before sends were ordered, this rig saw 5-24 divergences per run with
// zero kernel drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"

namespace sc {
namespace {

using namespace std::chrono_literals;

#if defined(__SANITIZE_THREAD__)
#define SC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SC_UNDER_TSAN 1
#endif
#endif
#ifdef SC_UNDER_TSAN
constexpr auto kOriginDelay = 10ms;
#else
constexpr auto kOriginDelay = 2ms;
#endif
constexpr std::uint64_t kDocBytes = 8 * 1024;

std::uint64_t divergences_total() {
    std::uint64_t total = 0;
    for (const auto& s : obs::metrics().snapshot().series)
        if (s.name == "sc_node_replica_divergence_total") total += s.counter;
    return total;
}

/// Datagrams the kernel dropped at these local UDP ports because their
/// receive buffers were full (the last column of /proc/net/udp).
std::uint64_t udp_drops(const std::vector<std::uint16_t>& ports) {
    std::ifstream table("/proc/net/udp");
    std::string line;
    std::getline(table, line);  // header
    std::uint64_t drops = 0;
    while (std::getline(table, line)) {
        std::istringstream fields(line);
        std::string slot, local, field, last;
        fields >> slot >> local;
        while (fields >> field) last = field;
        const auto port = static_cast<std::uint16_t>(
            std::stoul(local.substr(local.find(':') + 1), nullptr, 16));
        if (std::find(ports.begin(), ports.end(), port) != ports.end())
            drops += std::stoull(last);
    }
    return drops;
}

TEST(SummaryUpdateOrder, ConcurrentFlushesAndHeartbeatsNeverOpenAGap) {
    OriginServer origin(OriginServer::Config{.port = 0, .reply_delay = kOriginDelay});
    std::vector<std::unique_ptr<MiniProxy>> proxies;
    for (NodeId id = 1; id <= 2; ++id) {
        MiniProxyConfig cfg;
        cfg.id = id;
        cfg.origin = origin.endpoint();
        cfg.mode = ShareMode::summary;
        cfg.workers = 8;
        cfg.update_threshold = 0.0;
        cfg.keepalive_interval = 2ms;
        // 20 s of silence before a sibling is declared dead: a slow
        // (sanitized) event loop must not turn into a death and a resync.
        cfg.liveness_strikes = 10'000;
        proxies.push_back(std::make_unique<MiniProxy>(cfg));
    }
    proxies[0]->add_sibling(2, proxies[1]->icp_endpoint(), proxies[1]->http_endpoint());
    proxies[1]->add_sibling(1, proxies[0]->icp_endpoint(), proxies[0]->http_endpoint());
    for (auto& p : proxies) p->start();
    const auto synced_by = std::chrono::steady_clock::now() + 10s;
    for (auto& p : proxies) {
        while (p->synced_replicas() != 1) {
            ASSERT_LT(std::chrono::steady_clock::now(), synced_by) << "replicas never synced";
            std::this_thread::sleep_for(1ms);
        }
    }
    const std::vector<std::uint16_t> icp_ports = {proxies[0]->icp_endpoint().port,
                                                  proxies[1]->icp_endpoint().port};
    const std::uint64_t before = divergences_total();
    const std::uint64_t drops_before = udp_drops(icp_ports);

    constexpr int kClients = 16;
    std::atomic<std::uint64_t> misses{0};
    std::atomic<bool> failed{false};
    const auto stop_at = std::chrono::steady_clock::now() + 3s;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                MiniProxy& proxy = *proxies[static_cast<std::size_t>(c % 2)];
                TcpConnection conn = TcpConnection::connect(proxy.http_endpoint());
                for (std::uint64_t i = 0; std::chrono::steady_clock::now() < stop_at; ++i) {
                    const std::string url =
                        "http://order/" + std::to_string(c) + "/" + std::to_string(i);
                    conn.write_all(format_request({false, url, 0, kDocBytes}));
                    const auto line = conn.read_line();
                    if (!line) throw std::runtime_error("proxy closed the connection");
                    const auto header = parse_response_header(*line);
                    if (!header) throw std::runtime_error("bad response header");
                    conn.discard_exact(header->size);
                    if (header->status == HttpLiteStatus::miss) ++misses;
                }
            } catch (const std::exception&) {
                failed = true;
            }
        });
    }
    for (auto& t : clients) t.join();
    // Let the last deltas and a few heartbeats land.
    std::this_thread::sleep_for(50ms);
    const std::uint64_t after = divergences_total();
    const std::uint64_t dropped = udp_drops(icp_ports) - drops_before;
    for (auto& p : proxies) p->stop();
    origin.stop();

    EXPECT_FALSE(failed.load());
    EXPECT_GT(misses.load(), 100u) << "too little traffic to exercise the race";
    // A dropped delta opens one real gap; nothing else may.
    EXPECT_LE(after - before, dropped)
        << "replicas diverged without a lost datagram (" << dropped << " dropped)";
}

}  // namespace
}  // namespace sc
