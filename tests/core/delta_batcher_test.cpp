// DeltaBatcher: the §V-A update-delay policies (migrated here from the
// old UpdateThresholdPolicy/TimeIntervalPolicy), the §VI-B packet floor,
// flush-epoch election under contention, and the hooks -> node locking
// regression (run under TSan in CI).
#include "core/delta_batcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/lru_cache.hpp"
#include "core/summary_cache_node.hpp"
#include "util/thread_annotations.hpp"

namespace sc::core {
namespace {

DeltaBatcherConfig threshold_cfg(double fraction) {
    return DeltaBatcherConfig{fraction, 0.0, 0};
}

TEST(DeltaBatcher, NoFlushWithoutChanges) {
    DeltaBatcher b(threshold_cfg(0.01));
    EXPECT_FALSE(b.due(1000, 0.0));
    EXPECT_FALSE(b.try_begin_flush(1000, 0.0, 0).has_value());
}

TEST(DeltaBatcher, FlushDueAtThreshold) {
    DeltaBatcher b(threshold_cfg(0.01));  // 1% of 1000 docs = 10 new docs
    for (int i = 0; i < 9; ++i) b.on_new_document();
    EXPECT_FALSE(b.due(1000, 0.0));
    b.on_new_document();
    EXPECT_TRUE(b.due(1000, 0.0));
    const auto batch = b.try_begin_flush(1000, 0.0, 0);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(*batch, 10u);
    b.finish_flush(0.0, *batch);
    EXPECT_FALSE(b.due(1000, 0.0));  // reset by the flush
    EXPECT_EQ(b.epoch(), 1u);
}

TEST(DeltaBatcher, ZeroThresholdFlushesEveryChange) {
    DeltaBatcher b(threshold_cfg(0.0));
    EXPECT_FALSE(b.due(100, 0.0));  // nothing changed yet
    b.on_new_document();
    EXPECT_TRUE(b.due(100, 0.0));
}

TEST(DeltaBatcher, SmallerDirectoryTriggersSooner) {
    DeltaBatcher b(threshold_cfg(0.05));
    b.on_new_document();
    EXPECT_TRUE(b.due(10, 0.0));    // 1 >= 0.5
    EXPECT_FALSE(b.due(100, 0.0));  // 1 < 5
}

TEST(DeltaBatcher, TimeIntervalPolicy) {
    DeltaBatcher b(DeltaBatcherConfig{0.0, 10.0, 0});
    b.on_new_document();
    EXPECT_FALSE(b.due(1, 5.0));  // interval not yet elapsed
    EXPECT_TRUE(b.due(1, 10.0));
    const auto batch = b.try_begin_flush(1, 10.0, 0);
    ASSERT_TRUE(batch.has_value());
    b.finish_flush(10.0, *batch);
    b.on_new_document();
    EXPECT_FALSE(b.due(1, 15.0));  // clock restarts at the publish
    EXPECT_TRUE(b.due(1, 20.0));
}

TEST(DeltaBatcher, PacketFloorDefersWithoutReset) {
    // §VI-B: "enough changes to fill an IP packet". The floor defers the
    // flush but must NOT consume the unreflected count — the flush stays
    // due and fires as soon as the summary churn reaches the floor.
    DeltaBatcher b(DeltaBatcherConfig{0.0, 0.0, 350});
    b.on_new_document();
    EXPECT_FALSE(b.try_begin_flush(1, 0.0, /*pending_changes=*/100).has_value());
    EXPECT_EQ(b.unreflected(), 1u);  // not consumed
    const auto batch = b.try_begin_flush(1, 0.0, /*pending_changes=*/350);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(*batch, 1u);
    b.finish_flush(0.0, *batch);
}

TEST(DeltaBatcher, ConcurrentInsertersCoalesceIntoFlushEpochs) {
    // Many threads insert and race to flush; the CAS elects exactly one
    // flusher per epoch and no insert is lost or double-counted.
    DeltaBatcher b(threshold_cfg(0.0));
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2000;
    std::atomic<std::uint64_t> flushed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                b.on_new_document();
                if (const auto batch = b.try_begin_flush(1, 0.0, 0)) {
                    flushed.fetch_add(*batch);
                    b.finish_flush(0.0, *batch);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    // A final sweep collects whatever the last racers left behind.
    if (const auto batch = b.try_begin_flush(1, 0.0, 0)) {
        flushed.fetch_add(*batch);
        b.finish_flush(0.0, *batch);
    }
    EXPECT_EQ(flushed.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_GE(b.epoch(), 1u);
}

TEST(DeltaBatcher, NodeHooksCannotDeadlockWithReentrantFlush) {
    // Deadlock regression (run under TSan in CI). The cache hooks write
    // the node's counting filter under the cache mutex (cache-mutex ->
    // node leaf lock); the flusher encodes under its send mutex
    // (send-mutex -> node leaf lock) and then calls back into the cache
    // (document_count, even insert-with-eviction, which fires removal
    // hooks from THIS thread) while another thread inserts concurrently.
    // That is deadlock-free because the node's lock is a leaf: nothing is
    // called while it is held.
    const SummaryCacheNodeConfig node_cfg{.node_id = 1, .expected_docs = 64, .bloom = {}};
    DeltaBatcher b(threshold_cfg(0.0));
    SummaryCacheNode node(node_cfg);
    LruCache cache(LruCacheConfig{32 * 1024, 8 * 1024});  // tiny: evictions fire
    cache.set_insert_hook([&node](const LruCache::Entry& e) { node.on_cache_insert(e.url); });
    cache.set_removal_hook([&node](const LruCache::Entry& e) { node.on_cache_erase(e.url); });
    Mutex send_mu;  // MiniProxy's node_mu_: encode and send under one hold

    std::atomic<bool> stop{false};
    std::thread inserter([&] {
        // Mirrors ProtocolEngine::admit: the cache insert fires the hook,
        // the accepted document counts toward the threshold.
        for (int i = 0; !stop.load(std::memory_order_acquire); ++i)
            if (cache.insert("ins/" + std::to_string(i), 4096, 1)) b.on_new_document();
    });
    // A deadlock hangs here (ctest's timeout); TSan also reports any
    // lock-order inversion the two threads exhibit.
    for (int flushes = 0; flushes < 100;) {
        if (const auto batch = b.try_begin_flush(cache.document_count(), 0.0, 0)) {
            {
                const MutexLock lock(send_mu);
                (void)node.encode_pending_updates();
            }
            // The flush callback path re-enters the cache — including an
            // insert that evicts and fires hooks from THIS thread.
            cache.insert("flush/" + std::to_string(flushes++), 4096, 1);
            b.finish_flush(0.0, *batch);
        }
    }
    stop.store(true, std::memory_order_release);
    inserter.join();
    // No hook event was lost: the node's bitmap is the resident set's.
    SummaryCacheNode rebuilt(node_cfg);
    (void)rebuilt.rebuild_from_directory(cache);
    EXPECT_EQ(node.local_bits(), rebuilt.local_bits());
}

}  // namespace
}  // namespace sc::core
