// Warm restart (the tentpole acceptance pin): kill a proxy with a disk
// tier, restart it on the same segment directory, and the recovered node
// must (a) hold the same directory it held before the kill and (b)
// re-advertise a TRUTHFUL summary — a fresh sibling that receives the
// rebuilt filter predicts every recovered URL and turns each one into a
// remote hit over real sockets.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"
#include "proto/replay_client.hpp"
#include "store/segment_log.hpp"
#include "support/metric_delta.hpp"
#include "trace/request.hpp"

namespace sc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// One request per distinct URL, everything from one client (so a replay
/// against a single endpoint drives every request through that proxy).
std::vector<Request> distinct_urls(std::size_t n) {
    std::vector<Request> trace;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.client_id = 0;
        r.url = "http://warm.test/d" + std::to_string(i);
        r.size = 200 + (i % 7) * 100;
        r.version = 1;
        trace.push_back(std::move(r));
    }
    return trace;
}

MiniProxyConfig proxy_config(NodeId id, const Endpoint& origin, const std::string& disk_dir) {
    MiniProxyConfig cfg;
    cfg.id = id;
    cfg.origin = origin;
    cfg.mode = ShareMode::summary;
    cfg.update_threshold = 0.0;
    cfg.cache_bytes = 2ull * 1024 * 1024;
    cfg.disk_dir = disk_dir;
    return cfg;
}

void wire(MiniProxy& a, MiniProxy& b) {
    a.add_sibling(b.id(), b.icp_endpoint(), b.http_endpoint());
    b.add_sibling(a.id(), a.icp_endpoint(), a.http_endpoint());
}

class WarmRestartTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("sc_warm_restart_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(WarmRestartTest, KillAndRestartRebuildsDirectoryAndSummary) {
    constexpr std::size_t kDocs = 80;
    const auto trace = distinct_urls(kDocs);
    OriginServer origin{OriginServer::Config{}};

    std::size_t pre_kill_docs = 0;
    std::uint64_t pre_kill_bytes = 0;
    {
        // Phase 1: populate proxy A through real sockets, sibling attached.
        auto a = std::make_unique<MiniProxy>(proxy_config(1, origin.endpoint(), dir_.string()));
        auto b = std::make_unique<MiniProxy>(proxy_config(2, origin.endpoint(), ""));
        ASSERT_TRUE(a->has_disk_tier());
        ASSERT_FALSE(b->has_disk_tier());
        EXPECT_EQ(a->recovered_documents(), 0u);  // fresh directory
        wire(*a, *b);
        a->start();
        b->start();
        const auto stats = replay_trace(trace, {a->http_endpoint()});
        ASSERT_EQ(stats.errors, 0u);
        ASSERT_EQ(stats.misses, kDocs);  // every URL distinct: all origin fetches
        pre_kill_docs = a->cached_documents();
        pre_kill_bytes = a->cached_bytes();
        ASSERT_EQ(pre_kill_docs, kDocs);
        a->stop();
        b->stop();
    }  // A destroyed — the disk directory is all that survives

    // Phase 2: A' rises on the same segment directory; B' is a brand-new
    // sibling that has never heard an update from the old incarnation.
    auto a2 = std::make_unique<MiniProxy>(proxy_config(1, origin.endpoint(), dir_.string()));
    auto b2 = std::make_unique<MiniProxy>(proxy_config(2, origin.endpoint(), ""));
    const test::MetricDelta b2_counts;  // phase-1 B's applied updates are not B's
    EXPECT_EQ(a2->recovered_documents(), kDocs);
    EXPECT_EQ(a2->cached_documents(), pre_kill_docs);
    EXPECT_EQ(a2->cached_bytes(), pre_kill_bytes);
    wire(*a2, *b2);
    a2->start();
    b2->start();

    // Every recovered document is servable locally after the restart.
    const auto local = replay_trace(trace, {a2->http_endpoint()});
    EXPECT_EQ(local.errors, 0u);
    EXPECT_EQ(local.local_hits, kDocs);

    // The rebuilt counting filter is the node's advertised summary: the
    // boot pull of B' (DIRREQ -> DIRFULL) fetches it, and the fresh
    // sibling must predict every recovered URL.
    ASSERT_TRUE(
        test::eventually([&] { return b2_counts("sc_node_updates_applied_total", 2) > 0; }))
        << "B' never received the recovered summary";
    const auto remote = replay_trace(trace, {b2->http_endpoint()});
    EXPECT_EQ(remote.errors, 0u);
    EXPECT_EQ(remote.remote_hits, kDocs)
        << "the rebuilt summary failed to predict some recovered documents";
    EXPECT_EQ(remote.misses, 0u);

    a2->stop();
    b2->stop();
    origin.stop();
}

TEST_F(WarmRestartTest, TornTailIsDroppedNotFatal) {
    constexpr std::size_t kDocs = 12;
    const auto trace = distinct_urls(kDocs);
    OriginServer origin{OriginServer::Config{}};
    {
        MiniProxy a(proxy_config(1, origin.endpoint(), dir_.string()));
        a.start();
        const auto stats = replay_trace(trace, {a.http_endpoint()});
        ASSERT_EQ(stats.errors, 0u);
        ASSERT_EQ(a.cached_documents(), kDocs);
        a.stop();
    }
    // Simulate a crash mid-append: half a record at the tail of the
    // largest segment. Recovery must truncate it and keep everything else.
    fs::path victim;
    std::uintmax_t biggest = 0;
    for (const auto& de : fs::directory_iterator(dir_)) {
        if (fs::file_size(de.path()) > biggest) {
            biggest = fs::file_size(de.path());
            victim = de.path();
        }
    }
    ASSERT_FALSE(victim.empty());
    {
        std::string torn;
        store::encode_record(torn, store::Record{store::RecordType::insert, 1u << 20, 500, 9,
                                                 "http://warm.test/torn"});
        torn.resize(torn.size() - 3);
        std::ofstream out(victim, std::ios::binary | std::ios::app);
        out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    }

    MiniProxy a2(proxy_config(1, origin.endpoint(), dir_.string()));
    EXPECT_EQ(a2.recovered_documents(), kDocs);  // the torn record, and only it, is gone
    a2.start();
    const auto stats = replay_trace(trace, {a2.http_endpoint()});
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.local_hits, kDocs);
    a2.stop();
    origin.stop();
}

TEST_F(WarmRestartTest, DiskTierDisabledMeansNothingToRecover) {
    OriginServer origin{OriginServer::Config{}};
    MiniProxy a(proxy_config(1, origin.endpoint(), ""));
    EXPECT_FALSE(a.has_disk_tier());
    EXPECT_EQ(a.recovered_documents(), 0u);
    origin.stop();
}

}  // namespace
}  // namespace sc
