#include "core/summary_cache_node.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "support/metric_delta.hpp"

namespace sc {
namespace {

SummaryCacheNodeConfig cfg(NodeId id, std::uint64_t expected_docs = 1024) {
    SummaryCacheNodeConfig c;
    c.node_id = id;
    c.expected_docs = expected_docs;
    return c;
}

// Initialize `to`'s replica of `from` with a full-bitmap snapshot — the
// bootstrap handshake every stream starts with (a delta from a sender we
// have no sync point for is never applied, it answers need_bootstrap).
void bootstrap(SummaryCacheNode& from, SummaryCacheNode& to) {
    for (const auto& msg : from.encode_full_update_chunks()) {
        const auto r = to.apply_sibling_update(decode_dirupdate(msg));
        ASSERT_TRUE(r == SummaryApplyResult::applied || r == SummaryApplyResult::partial);
    }
    ASSERT_FALSE(to.sibling_needs_resync(from.id()));
}

// Deliver every pending update datagram from `from` to `to`. WHEN to
// encode is the DeltaBatcher's decision (tests/core/delta_batcher_test);
// the node encodes whatever churn is pending.
void sync(SummaryCacheNode& from, SummaryCacheNode& to) {
    for (const auto& msg : from.encode_pending_updates())
        ASSERT_EQ(to.apply_sibling_update(decode_dirupdate(msg)),
                  SummaryApplyResult::applied);
}

TEST(SummaryCacheNode, NoUpdatesWithoutDirectoryChurn) {
    SummaryCacheNode node(cfg(1));
    EXPECT_TRUE(node.encode_pending_updates().empty());
}

TEST(SummaryCacheNode, UpdateEmittedForPendingChanges) {
    SummaryCacheNode node(cfg(1));
    const test::MetricDelta counts;  // node ids repeat across tests
    node.on_cache_insert("http://a/1");
    const auto msgs = node.encode_pending_updates();
    EXPECT_FALSE(msgs.empty());
    EXPECT_EQ(counts("sc_node_updates_sent_total", 1), msgs.size());
    // The delta log was consumed: nothing further is pending.
    EXPECT_TRUE(node.encode_pending_updates().empty());
}

TEST(SummaryCacheNode, DiscardDeltaDropsPendingChanges) {
    SummaryCacheNode node(cfg(1));
    node.on_cache_insert("http://a/1");
    node.discard_delta();  // pull mode: siblings fetch full digests instead
    EXPECT_TRUE(node.encode_pending_updates().empty());
}

TEST(SummaryCacheNode, SiblingLearnsViaDeltaUpdates) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);
    a.on_cache_insert("http://shared/doc");
    sync(a, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "http://shared/doc"));
    EXPECT_EQ(b.promising_siblings("http://shared/doc"), std::vector<NodeId>{1});
    EXPECT_TRUE(b.promising_siblings("http://other/doc").empty());
}

TEST(SummaryCacheNode, FirstContactDeltaAsksForBootstrap) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    a.on_cache_insert("x");
    const auto msgs = a.encode_pending_updates();
    ASSERT_FALSE(msgs.empty());
    // No sync point for this sender: the delta must NOT fabricate a
    // replica (it would be missing every earlier document).
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(msgs[0])),
              SummaryApplyResult::need_bootstrap);
    EXPECT_EQ(b.known_siblings(), 0u);
    EXPECT_TRUE(b.sibling_needs_resync(1));
    // The bootstrap full then catches b up, including "x".
    bootstrap(a, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "x"));
}

TEST(SummaryCacheNode, EraseEventuallyClearsSiblingView) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);
    a.on_cache_insert("u");
    sync(a, b);
    a.on_cache_erase("u");
    a.on_cache_insert("v");
    sync(a, b);
    EXPECT_FALSE(b.sibling_may_contain(1, "u"));
    EXPECT_TRUE(b.sibling_may_contain(1, "v"));
}

TEST(SummaryCacheNode, FullUpdateBootstrapsSibling) {
    SummaryCacheNode a(cfg(1));
    for (int i = 0; i < 50; ++i) a.on_cache_insert("d" + std::to_string(i));
    SummaryCacheNode b(cfg(2));
    ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_full_update())),
              SummaryApplyResult::applied);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(b.sibling_may_contain(1, "d" + std::to_string(i))) << i;
    EXPECT_EQ(b.known_siblings(), 1u);
    // The snapshot set the sync point: deltas resume in sequence.
    a.on_cache_insert("after-bootstrap");
    sync(a, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "after-bootstrap"));
}

TEST(SummaryCacheNode, DuplicatedUpdateDeliveryIsIdempotent) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    const test::MetricDelta counts;
    bootstrap(a, b);
    a.on_cache_insert("x");
    const auto msgs = a.encode_pending_updates();
    ASSERT_EQ(msgs.size(), 1u);
    const auto update = decode_dirupdate(msgs[0]);
    ASSERT_EQ(b.apply_sibling_update(update), SummaryApplyResult::applied);
    // The duplicated datagram is recognized by its sequence number and
    // dropped — no double-apply, no quarantine.
    ASSERT_EQ(b.apply_sibling_update(update), SummaryApplyResult::duplicate);
    EXPECT_TRUE(b.sibling_may_contain(1, "x"));
    EXPECT_EQ(counts("sc_node_replica_divergence_total", 2), 0u);
    const std::optional<BloomFilter> f = b.sibling_filter(1);
    ASSERT_TRUE(f.has_value());
    EXPECT_LE(f->popcount(), 4u);  // absolute values: no double-set effects
}

TEST(SummaryCacheNode, LostUpdateQuarantinesUntilResync) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    const test::MetricDelta counts;
    bootstrap(a, b);
    a.on_cache_insert("first");
    (void)a.encode_pending_updates();  // "lost" in the network
    a.on_cache_insert("second");
    const auto msgs = a.encode_pending_updates();
    ASSERT_FALSE(msgs.empty());
    // The sequence gap is detected; the replica — silently missing
    // "first" — is dropped rather than left to mispredict forever.
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(msgs[0])),
              SummaryApplyResult::gap);
    EXPECT_EQ(b.known_siblings(), 0u);
    EXPECT_EQ(counts("sc_node_replica_divergence_total", 2), 1u);
    EXPECT_TRUE(b.sibling_needs_resync(1));
    // Further deltas while quarantined are withheld, not applied.
    a.on_cache_insert("third");
    for (const auto& m : a.encode_pending_updates())
        EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(m)),
                  SummaryApplyResult::need_resync);
    // The DIRREQ answer — a full snapshot — repairs everything at once.
    // (The initial bootstrap counted as the first resync: the metric
    // tallies every full-bitmap sync that established a replica.)
    ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_full_update())),
              SummaryApplyResult::applied);
    EXPECT_EQ(counts("sc_node_resyncs_total", 2), 2u);
    EXPECT_FALSE(b.sibling_needs_resync(1));
    EXPECT_TRUE(b.sibling_may_contain(1, "first"));
    EXPECT_TRUE(b.sibling_may_contain(1, "second"));
    EXPECT_TRUE(b.sibling_may_contain(1, "third"));
    // And the stream is back in sequence afterwards.
    a.on_cache_insert("fourth");
    sync(a, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "fourth"));
}

TEST(SummaryCacheNode, SenderRebootQuarantinesOldStream) {
    SummaryCacheNode b(cfg(2));
    auto boot1 = cfg(1);
    boot1.boot_id = 7;
    {
        SummaryCacheNode a(boot1);
        a.on_cache_insert("old-world");
        bootstrap(a, b);
        EXPECT_TRUE(b.sibling_may_contain(1, "old-world"));
    }
    // Same node id restarts with a fresh boot id and an empty cache; its
    // first delta must not be spliced onto the dead incarnation's stream.
    auto boot2 = cfg(1);
    boot2.boot_id = 8;
    SummaryCacheNode a2(boot2);
    a2.on_cache_insert("new-world");
    const auto msgs = a2.encode_pending_updates();
    ASSERT_FALSE(msgs.empty());
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(msgs[0])),
              SummaryApplyResult::gap);
    EXPECT_EQ(b.known_siblings(), 0u);  // stale incarnation dropped
    EXPECT_TRUE(b.sibling_needs_resync(1));
    bootstrap(a2, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "new-world"));
    EXPECT_FALSE(b.sibling_may_contain(1, "old-world"));
}

TEST(SummaryCacheNode, StaleFullSnapshotDropped) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);
    const auto old_full = a.encode_full_update();  // sync point S
    a.on_cache_insert("newer");
    sync(a, b);  // b's sync point advanced past S
    a.on_cache_insert("newest");
    sync(a, b);
    // The delayed snapshot arrives late: applying it would roll the
    // replica back behind deltas already applied.
    EXPECT_EQ(b.apply_sibling_update(decode_dirupdate(old_full)),
              SummaryApplyResult::stale);
    EXPECT_TRUE(b.sibling_may_contain(1, "newer"));
    EXPECT_TRUE(b.sibling_may_contain(1, "newest"));
}

TEST(SummaryCacheNode, LargeDeltaIsChunked) {
    SummaryCacheNode a(cfg(1, /*expected_docs=*/200'000));  // flips rarely collide
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);  // large table: the snapshot itself ships chunked
    // ~40k inserts * up to 4 flips each >> kMaxRecordsPerUpdate.
    for (int i = 0; i < 40'000; ++i) a.on_cache_insert("doc" + std::to_string(i));
    const auto msgs = a.encode_pending_updates();
    EXPECT_GT(msgs.size(), 1u);
    for (const auto& m : msgs) EXPECT_LE(m.size(), kMaxIcpDatagram);
    // All chunks apply cleanly, in sequence.
    for (const auto& m : msgs)
        ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(m)),
                  SummaryApplyResult::applied);
    EXPECT_TRUE(b.sibling_may_contain(1, "doc0"));
    EXPECT_TRUE(b.sibling_may_contain(1, "doc39999"));
}

TEST(SummaryCacheNode, SmallTablePrefersFullBitmap) {
    SummaryCacheNode a(cfg(1, /*expected_docs=*/64));  // full bitmap beats a large delta
    for (int i = 0; i < 500; ++i) a.on_cache_insert("k" + std::to_string(i));
    const auto msgs = a.encode_pending_updates();
    ASSERT_EQ(msgs.size(), 1u);
    const auto update = decode_dirupdate(msgs[0]);
    EXPECT_TRUE(update.full);
}

TEST(SummaryCacheNode, ElectedFullConsumesASequenceSlot) {
    // A threshold-elected full bitmap replaces delta datagrams, so losing
    // it must be detectable exactly like losing a delta: it consumes a
    // sequence number of its own.
    // 20 inserts flip ~80 bits of a 1024-bit table: past the crossover
    // (words = 32), so a full is elected, yet the filter stays sparse
    // enough that a later insert still produces delta records.
    SummaryCacheNode a(cfg(1, /*expected_docs=*/64));
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);
    for (int i = 0; i < 20; ++i) a.on_cache_insert("k" + std::to_string(i));
    const auto msgs = a.encode_pending_updates();
    ASSERT_EQ(msgs.size(), 1u);
    ASSERT_TRUE(decode_dirupdate(msgs[0]).full);  // election picked the bitmap
    // Scenario 1: the full arrives — applied, stream continues.
    ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(msgs[0])),
              SummaryApplyResult::applied);
    a.on_cache_insert("after");
    sync(a, b);
    EXPECT_TRUE(b.sibling_may_contain(1, "after"));
    // Scenario 2 (fresh receiver c): the elected full is LOST; the next
    // delta must read as a gap, not splice silently over the hole.
    SummaryCacheNode a2(cfg(1, /*expected_docs=*/64));
    SummaryCacheNode c(cfg(3));
    bootstrap(a2, c);
    for (int i = 0; i < 20; ++i) a2.on_cache_insert("k" + std::to_string(i));
    const auto lost = a2.encode_pending_updates();
    ASSERT_EQ(lost.size(), 1u);
    ASSERT_TRUE(decode_dirupdate(lost[0]).full);  // ...and it is never delivered
    a2.on_cache_insert("after");
    const auto next = a2.encode_pending_updates();
    ASSERT_FALSE(next.empty());
    EXPECT_EQ(c.apply_sibling_update(decode_dirupdate(next[0])),
              SummaryApplyResult::gap);
}

TEST(SummaryCacheNode, DeltaWithMismatchedSpecRejected) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    const test::MetricDelta counts;
    bootstrap(a, b);
    a.on_cache_insert("x");
    auto msgs = a.encode_pending_updates();
    ASSERT_FALSE(msgs.empty());
    auto update = decode_dirupdate(msgs[0]);
    ASSERT_EQ(b.apply_sibling_update(update), SummaryApplyResult::applied);
    // Same sibling suddenly advertises a different table size via delta.
    update.spec.table_bits /= 2;
    update.records.clear();
    update.request_number += 1;  // in sequence — the spec is what is wrong
    EXPECT_EQ(b.apply_sibling_update(update), SummaryApplyResult::rejected);
    EXPECT_EQ(counts("sc_node_updates_rejected_total", 2), 1u);
    // But a full update with the new spec re-creates the replica.
    update.full = true;
    update.bitmap_words.assign((update.spec.table_bits + 31) / 32, 0);
    EXPECT_EQ(b.apply_sibling_update(update), SummaryApplyResult::applied);
}

TEST(SummaryCacheNode, ForgetSiblingDropsReplica) {
    SummaryCacheNode a(cfg(1));
    SummaryCacheNode b(cfg(2));
    bootstrap(a, b);
    a.on_cache_insert("x");
    sync(a, b);
    EXPECT_EQ(b.known_siblings(), 1u);
    b.forget_sibling(1);
    EXPECT_EQ(b.known_siblings(), 0u);
    EXPECT_FALSE(b.sibling_may_contain(1, "x"));
    EXPECT_FALSE(b.sibling_filter(1).has_value());
    // The stream state went with it: a rejoin starts from bootstrap.
    EXPECT_TRUE(b.sibling_needs_resync(1));
}

TEST(SummaryCacheNode, MultipleSiblingsProbedTogether) {
    SummaryCacheNode home(cfg(0));
    SummaryCacheNode s1(cfg(1));
    SummaryCacheNode s2(cfg(2));
    bootstrap(s1, home);
    bootstrap(s2, home);
    s1.on_cache_insert("common");
    s2.on_cache_insert("common");
    s2.on_cache_insert("only2");
    sync(s1, home);
    sync(s2, home);
    EXPECT_EQ(home.promising_siblings("common"), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(home.promising_siblings("only2"), std::vector<NodeId>{2});
}

TEST(SummaryCacheNode, WireRoundTripPreservesFilterExactly) {
    // Full update must transfer the bit array verbatim.
    SummaryCacheNode a(cfg(1));
    for (int i = 0; i < 300; ++i) a.on_cache_insert("doc/" + std::to_string(i));
    SummaryCacheNode b(cfg(2));
    ASSERT_EQ(b.apply_sibling_update(decode_dirupdate(a.encode_full_update())),
              SummaryApplyResult::applied);
    const std::optional<BloomFilter> replica = b.sibling_filter(1);
    ASSERT_TRUE(replica.has_value());
    const BloomFilter local = a.local_bits();
    EXPECT_EQ(replica->popcount(), local.popcount());
    EXPECT_EQ(*replica, local);
}

}  // namespace
}  // namespace sc
