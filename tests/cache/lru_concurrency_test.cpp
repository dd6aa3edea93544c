// Multi-threaded hammer for the internally-locked LruCache: the proxy's
// worker pool shares one cache, so every public method must be callable
// concurrently without corrupting the LRU list, the index, or the byte
// accounting. Run under TSan/ASan in CI; the end-of-run invariant checks
// catch lost updates even in a plain build.
#include "cache/lru_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/summary_cache_node.hpp"

namespace sc {
namespace {

std::string url_for(std::uint64_t i) { return "http://host/" + std::to_string(i); }

TEST(LruConcurrency, ParallelMixedOpsPreserveInvariants) {
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    constexpr std::uint64_t kUrls = 256;
    constexpr std::uint64_t kObjBytes = 1000;
    // Capacity for ~64 of the 256 urls: constant eviction pressure.
    LruCache cache(LruCacheConfig{64 * kObjBytes, kObjBytes});

    std::atomic<std::uint64_t> hook_inserts{0};
    std::atomic<std::uint64_t> hook_removes{0};
    cache.set_insert_hook([&](const LruCache::Entry&) { hook_inserts.fetch_add(1); });
    cache.set_removal_hook([&](const LruCache::Entry&) { hook_removes.fetch_add(1); });

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            // Deterministic per-thread op mix (no shared RNG).
            std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1);
            for (int i = 0; i < kOpsPerThread; ++i) {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift
                const std::uint64_t u = x % kUrls;
                const std::string url = url_for(u);
                switch (x % 7) {
                    case 0: (void)cache.insert(url, kObjBytes, u % 3); break;
                    case 1: (void)cache.lookup(url, u % 3); break;
                    case 2: (void)cache.contains(url); break;
                    case 3: cache.touch(url); break;
                    case 4: (void)cache.erase(url); break;
                    case 5: (void)cache.entry_copy(url); break;
                    default: (void)cache.used_bytes(); break;
                }
            }
        });
    }
    for (auto& th : threads) th.join();

    // Accounting invariants must hold exactly once the dust settles.
    std::uint64_t walked_bytes = 0;
    std::size_t walked_count = 0;
    cache.for_each([&](const LruCache::Entry& e) {
        walked_bytes += e.size;
        ++walked_count;
    });
    EXPECT_EQ(walked_count, cache.document_count());
    EXPECT_EQ(walked_bytes, cache.used_bytes());
    EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
    // Every resident entry was inserted; everything else was removed.
    EXPECT_EQ(hook_inserts.load() - hook_removes.load(), cache.document_count());
    EXPECT_GE(cache.eviction_count(), 1u);  // pressure actually happened
}

// The production hook wiring under maximum contention: a sharded cache
// hammered by the worker pool while its hooks write every directory event
// into a SummaryCacheNode's counting filter (the leaf lock of
// docs/PROTOCOL.md), with an encoder thread playing the elected flusher.
// TSan validates the shard locks against the node's lock; the final check
// holds in any build: the node's bitmap equals one rebuilt from the
// resident set, so no hook event was lost or applied twice.
TEST(LruConcurrency, ShardedOpsWriteNodeThroughHooks) {
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    constexpr std::uint64_t kUrls = 256;
    constexpr std::uint64_t kObjBytes = 1000;
    const SummaryCacheNodeConfig node_cfg{.node_id = 1, .expected_docs = kUrls, .bloom = {}};
    LruCache cache(LruCacheConfig{64 * kObjBytes, kObjBytes, /*shards=*/8});
    SummaryCacheNode node(node_cfg);
    cache.set_insert_hook([&node](const LruCache::Entry& e) { node.on_cache_insert(e.url); });
    cache.set_removal_hook([&node](const LruCache::Entry& e) { node.on_cache_erase(e.url); });

    std::atomic<bool> stop{false};
    std::thread encoder([&] {
        while (!stop.load(std::memory_order_acquire))
            if (node.encode_pending_updates().empty()) std::this_thread::yield();
    });

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1);
            for (int i = 0; i < kOpsPerThread; ++i) {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift
                const std::uint64_t u = x % kUrls;
                const std::string url = url_for(u);
                switch (x % 6) {
                    case 0: (void)cache.insert(url, kObjBytes, u % 3); break;
                    case 1: (void)cache.lookup(url, u % 3); break;
                    case 2: cache.touch(url); break;
                    case 3: (void)cache.erase(url); break;
                    case 4: (void)cache.entry_copy(url); break;
                    default: (void)cache.lru_entry(); break;
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    stop.store(true, std::memory_order_release);
    encoder.join();

    std::uint64_t walked_bytes = 0;
    std::size_t walked_count = 0;
    cache.for_each([&](const LruCache::Entry& e) {
        walked_bytes += e.size;
        ++walked_count;
    });
    EXPECT_EQ(walked_count, cache.document_count());
    EXPECT_EQ(walked_bytes, cache.used_bytes());
    EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
    SummaryCacheNode rebuilt(node_cfg);
    (void)rebuilt.rebuild_from_directory(cache);
    EXPECT_EQ(node.local_bits(), rebuilt.local_bits());
    EXPECT_GE(cache.eviction_count(), 1u);
}

TEST(LruConcurrency, ConcurrentInsertsOfSameUrlKeepSingleEntry) {
    LruCache cache(LruCacheConfig{1 << 20, 1 << 16});
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache] {
            for (int i = 0; i < 2000; ++i) (void)cache.insert("http://same/url", 100, 1);
        });
    for (auto& th : threads) th.join();
    EXPECT_EQ(cache.document_count(), 1u);
    EXPECT_EQ(cache.used_bytes(), 100u);
    const auto entry = cache.entry_copy("http://same/url");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->version, 1u);
}

}  // namespace
}  // namespace sc
