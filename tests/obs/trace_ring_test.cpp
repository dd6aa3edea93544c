// sc::obs trace ring: overwrite-oldest semantics, drain-marks-consumed,
// multi-thread merge ordering, the JSON rendering, and the memory bound:
// slots grow with use and die with their thread, whose undrained events
// move to the retired ring.
#include "obs/trace_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "proto/mini_proxy.hpp"
#include "proto/origin_server.hpp"

namespace sc::obs {
namespace {

using namespace std::chrono_literals;

TEST(TraceRing, RecordsAndDrainsInOrder) {
    TraceRing ring(16);
    ring.record(TraceEventType::remote_hit, 1, 10);
    ring.record(TraceEventType::icp_timeout, 1, 20);
    ring.record(TraceEventType::sibling_dead, 2, 30);
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].type, TraceEventType::remote_hit);
    EXPECT_EQ(events[0].a, 10u);
    EXPECT_EQ(events[1].type, TraceEventType::icp_timeout);
    EXPECT_EQ(events[2].type, TraceEventType::sibling_dead);
    EXPECT_EQ(events[2].node, 2u);
    // Monotonic timestamps.
    EXPECT_LE(events[0].ns, events[1].ns);
    EXPECT_LE(events[1].ns, events[2].ns);
}

TEST(TraceRing, DrainMarksEventsConsumed) {
    TraceRing ring(16);
    ring.record(TraceEventType::remote_hit, 1);
    EXPECT_EQ(ring.drain().size(), 1u);
    EXPECT_TRUE(ring.drain().empty());
    ring.record(TraceEventType::remote_hit, 1);
    EXPECT_EQ(ring.drain().size(), 1u);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
    constexpr std::size_t kCap = 8;
    TraceRing ring(kCap);
    // Write capacity + k events; the drain must return exactly the last
    // kCap, in recording order.
    constexpr std::uint64_t kTotal = kCap + 5;
    for (std::uint64_t i = 0; i < kTotal; ++i)
        ring.record(TraceEventType::false_positive_probe, 1, i);
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), kCap);
    for (std::size_t i = 0; i < kCap; ++i)
        EXPECT_EQ(events[i].a, kTotal - kCap + i) << "slot " << i;
}

TEST(TraceRing, OverwriteAfterPartialDrainStillClipsToCapacity) {
    constexpr std::size_t kCap = 4;
    TraceRing ring(kCap);
    ring.record(TraceEventType::remote_hit, 1, 0);
    EXPECT_EQ(ring.drain().size(), 1u);
    // Lap the ring twice past the drained watermark.
    for (std::uint64_t i = 1; i <= 2 * kCap + 1; ++i)
        ring.record(TraceEventType::remote_hit, 1, i);
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), kCap);
    EXPECT_EQ(events.front().a, 2 * kCap + 1 - (kCap - 1));
    EXPECT_EQ(events.back().a, 2 * kCap + 1);
}

TEST(TraceRing, ClearDropsUndrained) {
    TraceRing ring(16);
    ring.record(TraceEventType::remote_hit, 1);
    ring.clear();
    EXPECT_TRUE(ring.drain().empty());
}

TEST(TraceRing, DisabledRingRecordsNothing) {
    TraceRing ring(16);
    ring.set_enabled(false);
    ring.record(TraceEventType::remote_hit, 1);
    EXPECT_TRUE(ring.drain().empty());
    ring.set_enabled(true);
    ring.record(TraceEventType::remote_hit, 1);
    EXPECT_EQ(ring.drain().size(), 1u);
}

TEST(TraceRing, MergesPerThreadBuffersByTimestamp) {
    TraceRing ring(1024);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ring, t] {
            for (int i = 0; i < kPerThread; ++i)
                ring.record(TraceEventType::summary_update_applied,
                            static_cast<std::uint16_t>(t), static_cast<std::uint64_t>(i));
        });
    }
    for (auto& t : threads) t.join();
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
    // Global order is by timestamp; each thread's own events must still
    // appear in their recording order.
    std::vector<std::uint64_t> next_a(kThreads, 0);
    for (std::size_t i = 1; i < events.size(); ++i) EXPECT_LE(events[i - 1].ns, events[i].ns);
    for (const TraceEvent& e : events) {
        EXPECT_EQ(e.a, next_a[e.node]) << "thread " << e.node;
        ++next_a[e.node];
    }
}

TEST(TraceRing, JsonRendering) {
    std::vector<TraceEvent> events(1);
    events[0].ns = 12345;
    events[0].type = TraceEventType::icp_timeout;
    events[0].node = 3;
    events[0].a = 2;
    events[0].b = 0;
    EXPECT_EQ(trace_to_json(events),
              "[{\"ns\":12345,\"type\":\"icp_timeout\",\"node\":3,\"a\":2,\"b\":0}]");
    EXPECT_EQ(trace_to_json({}), "[]");
}

TEST(TraceRing, GlobalShorthandRecords) {
    TraceRing::global().clear();
    trace(TraceEventType::sibling_recovered, 7, 8, 9);
    const auto events = TraceRing::global().drain();
    ASSERT_GE(events.size(), 1u);
    bool found = false;
    for (const TraceEvent& e : events)
        found = found || (e.type == TraceEventType::sibling_recovered && e.node == 7 &&
                          e.a == 8 && e.b == 9);
    EXPECT_TRUE(found);
}

TEST(TraceRing, SlotsGrowWithUse) {
    TraceRing ring(4096);
    EXPECT_EQ(ring.retained_slots(), 0u);
    ring.record(TraceEventType::remote_hit, 1);
    // One event costs a page of slots, not the whole capacity.
    EXPECT_GT(ring.retained_slots(), 0u);
    EXPECT_LE(ring.retained_slots(), ring.capacity_per_thread() / 16);
    for (int i = 0; i < 10000; ++i) ring.record(TraceEventType::remote_hit, 1);
    EXPECT_EQ(ring.retained_slots(), ring.capacity_per_thread());
}

TEST(TraceRing, ThreadChurnStaysWithinTheBound) {
    constexpr std::size_t kCap = 64;
    TraceRing ring(kCap);
    for (int i = 0; i < 1000; ++i) {
        std::thread([&ring, i] {
            ring.record(TraceEventType::summary_update_applied, 1, static_cast<std::uint64_t>(i));
        }).join();
    }
    // No live recording thread: only the retired ring may hold slots.
    EXPECT_LE(ring.retained_slots(), kCap);
    // It kept the newest kCap events, oldest first.
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), kCap);
    for (std::size_t i = 0; i < kCap; ++i) EXPECT_EQ(events[i].a, 1000 - kCap + i);
}

TEST(TraceRing, ExitedThreadsEventsAreStillDrained) {
    constexpr std::size_t kCap = 8;
    TraceRing ring(kCap);
    std::thread([&ring] {
        for (std::uint64_t i = 0; i < 3; ++i) ring.record(TraceEventType::remote_hit, 1, i);
    }).join();
    auto events = ring.drain();
    ASSERT_EQ(events.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(events[i].a, i);
    EXPECT_TRUE(ring.drain().empty());

    // Two exited threads overflow the retired ring: the oldest go first.
    for (std::uint64_t t = 0; t < 2; ++t) {
        std::thread([&ring, t] {
            for (std::uint64_t i = 0; i < 6; ++i)
                ring.record(TraceEventType::remote_hit, 1, t * 6 + i);
        }).join();
    }
    events = ring.drain();
    ASSERT_EQ(events.size(), kCap);
    for (std::size_t i = 0; i < kCap; ++i) EXPECT_EQ(events[i].a, 12 - kCap + i) << "slot " << i;
}

TEST(TraceRing, DrainedEventsAreNotRetired) {
    TraceRing ring(8);
    std::thread([&ring] {
        ring.record(TraceEventType::remote_hit, 1, 1);
        EXPECT_EQ(ring.drain().size(), 1u);
        ring.record(TraceEventType::remote_hit, 1, 2);
    }).join();
    const auto events = ring.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].a, 2u);
}

TEST(TraceRing, ThreadOutlivingItsRingNeverTouchesIt) {
    auto ring = std::make_unique<TraceRing>(16);
    std::latch recorded(1);
    std::latch ring_gone(1);
    std::thread worker([&] {
        ring->record(TraceEventType::remote_hit, 1);
        recorded.count_down();
        ring_gone.wait();
        // Exits now: its buffer must not be retired into the freed ring
        // (ASan/TSan flag any touch).
    });
    recorded.wait();
    ring.reset();
    ring_gone.count_down();
    worker.join();
    // A new ring, possibly at the old address, inherits nothing.
    TraceRing fresh(16);
    EXPECT_TRUE(fresh.drain().empty());
    EXPECT_EQ(fresh.retained_slots(), 0u);
}

TEST(TraceRing, ConcurrentExitsAndDrainsLoseNothing) {
    TraceRing ring(1024);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::atomic<bool> done{false};
    std::size_t drained = 0;
    std::thread drainer([&] {
        while (!done.load()) drained += ring.drain().size();
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&ring, t] {
            for (int i = 0; i < kPerThread; ++i)
                ring.record(TraceEventType::remote_hit, static_cast<std::uint16_t>(t));
        });
    }
    for (auto& t : threads) t.join();
    done.store(true);
    drainer.join();
    drained += ring.drain().size();
    EXPECT_EQ(drained, static_cast<std::size_t>(kThreads * kPerThread));
}

// The cluster scoreboard's set-up loop: summary-mode 4-proxy meshes started
// and stopped in a row. Their event loops trace while the replicas sync,
// then exit; the global ring must not grow with the count.
TEST(TraceRing, MeshChurnDoesNotGrowTheGlobalRing) {
    TraceRing& ring = TraceRing::global();
    const auto mesh_once = [] {
        OriginServer origin({});
        std::vector<std::unique_ptr<MiniProxy>> proxies;
        for (NodeId id = 1; id <= 4; ++id) {
            MiniProxyConfig cfg;
            cfg.id = id;
            cfg.origin = origin.endpoint();
            cfg.mode = ShareMode::summary;
            cfg.workers = 2;
            proxies.push_back(std::make_unique<MiniProxy>(cfg));
        }
        for (auto& p : proxies)
            for (auto& q : proxies)
                if (p != q) p->add_sibling(q->id(), q->icp_endpoint(), q->http_endpoint());
        for (auto& p : proxies) p->start();
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        for (auto& p : proxies) {
            while (p->synced_replicas() != proxies.size() - 1) {
                ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "replicas never synced";
                std::this_thread::sleep_for(100us);
            }
        }
        origin.stop();
        for (auto& p : proxies) p->stop();
    };
    constexpr int kMeshes = 25;
    for (int i = 0; i < kMeshes; ++i) mesh_once();
    // Every mesh thread has exited: at most this thread's buffer and the
    // retired ring remain.
    EXPECT_LE(ring.retained_slots(), 2 * ring.capacity_per_thread());
    // The exited threads' events are still there to drain.
    bool applied = false;
    for (const TraceEvent& e : ring.drain())
        applied = applied || e.type == TraceEventType::summary_update_applied;
    EXPECT_TRUE(applied);
}

}  // namespace
}  // namespace sc::obs
