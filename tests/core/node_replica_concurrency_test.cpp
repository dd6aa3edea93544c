// Concurrency contract of SummaryCacheNode's per-sender records: readers
// (promising_siblings / sibling_may_contain / sibling_filter) and writers
// (apply_sibling_update / forget_sibling) share replica_mu_, and a writer
// changes a replica in place under it, so a probe sees the replica from
// before an update or after it, never a half-applied one. Run under TSan
// in CI; the never-blended test catches a torn update in any build.
#include "core/summary_cache_node.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace sc {
namespace {

SummaryCacheNodeConfig cfg(NodeId id, std::uint64_t expected_docs = 1024) {
    SummaryCacheNodeConfig c;
    c.node_id = id;
    c.expected_docs = expected_docs;
    return c;
}

TEST(NodeReplicaConcurrency, ProbesRaceDeltaApplicationSafely) {
    SummaryCacheNode home(cfg(0));
    SummaryCacheNode sibling(cfg(1));
    // Bootstrap so deltas apply against a known replica from step one.
    ASSERT_EQ(home.apply_sibling_update(decode_dirupdate(sibling.encode_full_update())),
              SummaryApplyResult::applied);

    constexpr int kDocs = 2000;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        // A live churn stream: insert, flush the delta, apply. The sibling
        // node itself is confined to this thread; only apply_sibling_update
        // touches shared state.
        for (int i = 0; i < kDocs; ++i) {
            sibling.on_cache_insert("doc" + std::to_string(i));
            for (const auto& msg : sibling.encode_pending_updates())
                ASSERT_EQ(home.apply_sibling_update(decode_dirupdate(msg)),
                          SummaryApplyResult::applied);
        }
        done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&home, &done, r] {
            std::uint64_t sink = 0;
            // Probe at least once even if the writer finishes before this
            // thread is first scheduled (single-core schedulers do that),
            // so the sink check below is deterministic.
            for (int i = 0; i == 0 || !done.load(std::memory_order_acquire); ++i) {
                const std::string url = "doc" + std::to_string((i * 7 + r) % kDocs);
                const auto promising = home.promising_siblings(url);
                for (const NodeId id : promising) EXPECT_EQ(id, 1u);
                sink += home.sibling_may_contain(1, url) ? 1 : 0;
                if (const auto f = home.sibling_filter(1)) sink += f->popcount();
                sink += home.known_siblings();
            }
            EXPECT_GT(sink, 0u);
        });
    }
    writer.join();
    for (auto& th : readers) th.join();

    // Every applied delta is visible once the writer is done.
    for (int i = 0; i < kDocs; ++i)
        EXPECT_TRUE(home.sibling_may_contain(1, "doc" + std::to_string(i))) << i;
}

TEST(NodeReplicaConcurrency, ProbesRaceForgetAndRebootstrapSafely) {
    SummaryCacheNode home(cfg(0));
    SummaryCacheNode sibling(cfg(1));
    sibling.on_cache_insert("stable");
    const auto full = decode_dirupdate(sibling.encode_full_update());

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        // Liveness churn: the sibling keeps dying and coming back.
        for (int i = 0; i < 2000; ++i) {
            home.forget_sibling(1);
            // forget erased the stream, so every re-apply is a bootstrap.
            ASSERT_EQ(home.apply_sibling_update(full), SummaryApplyResult::applied);
        }
        stop.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&home, &stop] {
            while (!stop.load(std::memory_order_acquire)) {
                // Known or forgotten are both fine; a torn table is not.
                const auto promising = home.promising_siblings("stable");
                EXPECT_LE(promising.size(), 1u);
                EXPECT_LE(home.known_siblings(), 1u);
            }
        });
    }
    writer.join();
    for (auto& th : readers) th.join();
    EXPECT_TRUE(home.sibling_may_contain(1, "stable"));
}

TEST(NodeReplicaConcurrency, SnapshotsAreNeverBlended) {
    // Two full updates with disjoint contents swapped in a tight loop: any
    // copy a reader takes must answer exactly like one of the two source
    // filters — seeing a mix means an update tore.
    SummaryCacheNode odd(cfg(1));
    SummaryCacheNode even(cfg(1));
    for (int i = 0; i < 64; ++i) {
        odd.on_cache_insert("odd" + std::to_string(i));
        even.on_cache_insert("even" + std::to_string(i));
    }
    const auto odd_full = decode_dirupdate(odd.encode_full_update());
    const auto even_full = decode_dirupdate(even.encode_full_update());
    // Probe keys that distinguish the two filters with certainty (skip
    // Bloom false positives up front, single-threaded).
    std::vector<std::string> odd_keys, even_keys;
    const BloomFilter odd_bits = odd.local_bits();
    const BloomFilter even_bits = even.local_bits();
    for (int i = 0; i < 64 && (odd_keys.size() < 8 || even_keys.size() < 8); ++i) {
        const std::string o = "odd" + std::to_string(i);
        const std::string e = "even" + std::to_string(i);
        if (!even_bits.may_contain(o)) odd_keys.push_back(o);
        if (!odd_bits.may_contain(e)) even_keys.push_back(e);
    }
    ASSERT_FALSE(odd_keys.empty());
    ASSERT_FALSE(even_keys.empty());

    SummaryCacheNode home(cfg(0));
    ASSERT_EQ(home.apply_sibling_update(odd_full), SummaryApplyResult::applied);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        // The two snapshots carry different boot ids (distinct node
        // instances), so neither ever reads as stale against the other.
        for (int i = 0; i < 4000; ++i)
            ASSERT_EQ(home.apply_sibling_update((i % 2 != 0) ? even_full : odd_full),
                      SummaryApplyResult::applied);
        stop.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const std::optional<BloomFilter> f = home.sibling_filter(1);
                ASSERT_TRUE(f.has_value());
                const bool saw_odd = f->may_contain(odd_keys[0]);
                // A copy is all-odd or all-even, never a blend.
                for (const auto& k : odd_keys) EXPECT_EQ(f->may_contain(k), saw_odd) << k;
                for (const auto& k : even_keys) EXPECT_EQ(f->may_contain(k), !saw_odd) << k;
            }
        });
    }
    writer.join();
    for (auto& th : readers) th.join();
}

}  // namespace
}  // namespace sc
